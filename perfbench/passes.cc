#include "passes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "obs/engine_profile.h"

namespace perfbench {

using namespace gpushield;
using harness::RunRecord;
using harness::SweepSpec;

namespace {

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
minimum(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

void
put(Metrics &out, const std::string &name, double value,
    const std::string &unit, const std::string &base = {},
    double base_value = 0.0)
{
    out[name] = Metric{value, unit, base, base_value};
}

/** Σ of counter @p name of component @p part over the chosen cells. */
template <typename Pred>
double
sum(const PassResult &pass, StatSet RunRecord::*part, const std::string &name,
    Pred keep)
{
    double total = 0.0;
    for (const CellResult &c : pass.cells)
        if (keep(c.record))
            total += static_cast<double>((c.record.*part).get(name));
    return total;
}

bool
any_cell(const RunRecord &)
{
    return true;
}

bool
shield_cell(const RunRecord &r)
{
    return r.shield;
}

} // namespace

PassResult
run_pass(const SweepSpec &spec, std::uint64_t seed, const Hooks &hooks,
         unsigned setup_repeats)
{
    PassResult pass;
    pass.setup_only_s.resize(spec.cells.size());
    Hooks setup_only;
    setup_only.setup_only = true;
    harness::MetricsRegistry registry(spec.cells.size());
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        CellResult c = run_cell(spec, i, seed, hooks);
        for (unsigned k = 0; k < setup_repeats; ++k)
            pass.setup_only_s[i].push_back(
                run_cell(spec, i, seed, setup_only).setup_s);
        const RunRecord &r = c.record;
        if (!r.ok || r.aborted || r.violations != 0) {
            ++pass.failed;
            std::fprintf(stderr, "perfbench: cell %s failed: %s%s%s\n",
                         r.key.c_str(), r.error.c_str(),
                         r.aborted ? " aborted" : "",
                         r.violations != 0 ? " violations" : "");
        }
        RunRecord simulated = r;
        simulated.obs = StatSet{};
        registry.record(i, std::move(simulated));
        pass.wall_s += c.wall_s;
        pass.cells.push_back(std::move(c));
    }

    std::ostringstream jsonl;
    const auto t0 = std::chrono::steady_clock::now();
    {
        SpanScope s(hooks.tracer, "harness.write_jsonl", -1);
        registry.write_jsonl(jsonl);
    }
    pass.write_jsonl_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    pass.wall_s += pass.write_jsonl_s;
    pass.sim_digest = fnv1a(jsonl.str());
    return pass;
}

Metrics
end_to_end_metrics(const SweepSpec &spec,
                   const std::vector<PassResult> &repeats,
                   double peak_rss_mb)
{
    double wall = 0.0, setup = 0.0;
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        std::vector<double> cell_wall, cell_setup;
        for (const PassResult &p : repeats) {
            cell_wall.push_back(p.cells[i].wall_s);
            cell_setup.push_back(p.cells[i].setup_s);
            cell_setup.insert(cell_setup.end(), p.setup_only_s[i].begin(),
                              p.setup_only_s[i].end());
        }
        wall += minimum(cell_wall);
        setup += minimum(cell_setup);
    }
    std::vector<double> writes;
    for (const PassResult &p : repeats)
        writes.push_back(p.write_jsonl_s);
    wall += minimum(writes);

    const PassResult &first = repeats.front();
    double warp_insts = 0.0;
    std::map<std::string, double> base_cycles;
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        const CellResult &c = first.cells[i];
        warp_insts += static_cast<double>(c.warp_insts);
        if (!c.record.shield)
            base_cycles[pair_key(spec, i)] =
                static_cast<double>(c.record.cycles);
    }
    std::vector<double> overheads;
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        const RunRecord &r = first.cells[i].record;
        const auto it = base_cycles.find(pair_key(spec, i));
        if (r.shield && it != base_cycles.end() && it->second > 0.0)
            overheads.push_back(static_cast<double>(r.cycles) / it->second);
    }

    Metrics m;
    put(m, "wall_s", wall, "s");
    put(m, "sim_kips", ratio(warp_insts, wall) / 1e3, "kinst/s",
        "sim.warp_insts", warp_insts);
    put(m, "setup_s", setup, "s");
    put(m, "peak_rss_mb", peak_rss_mb, "MB");
    const double pairs = static_cast<double>(overheads.size());
    put(m, "shield_overhead_geomean", harness::geomean(overheads), "ratio",
        "shield_pairs", pairs);
    put(m, "shield_overhead_max",
        overheads.empty()
            ? 1.0
            : *std::max_element(overheads.begin(), overheads.end()),
        "ratio", "shield_pairs", pairs);
    return m;
}

void
add_counter_metrics(const PassResult &pass, Metrics &out)
{
    double warp_insts = 0.0, cycles = 0.0, skipped = 0.0, launches = 0.0,
           ids = 0.0;
    CompilerCounts compiler;
    for (const CellResult &c : pass.cells) {
        compiler.rows += c.compiler.rows;
        compiler.static_safe += c.compiler.static_safe;
        compiler.covered += c.compiler.covered;
        warp_insts += static_cast<double>(c.warp_insts);
        cycles += static_cast<double>(c.record.cycles);
        skipped += static_cast<double>(c.record.cycles_skipped);
        launches += static_cast<double>(c.driver.get("launches"));
        ids += static_cast<double>(c.driver.get("ids_assigned"));
    }
    put(out, "sim.warp_insts", warp_insts, "count");
    put(out, "sim.cycles", cycles, "cycles");
    put(out, "sim.skipped_frac", ratio(skipped, cycles), "fraction",
        "sim.cycles");
    put(out, "compiler.rows", static_cast<double>(compiler.rows), "count");
    put(out, "compiler.static_safe_rows",
        static_cast<double>(compiler.static_safe), "count", "compiler.rows");
    put(out, "compiler.covered_rows", static_cast<double>(compiler.covered),
        "count", "compiler.rows");
    put(out, "driver.launches", launches, "count");
    put(out, "driver.ids_assigned", ids, "count");

    const auto mem = [&](const std::string &name) {
        return sum(pass, &RunRecord::mem, name, any_cell);
    };
    const double dram_requests = mem("dram.requests");
    put(out, "mem.dram_requests", dram_requests, "count");
    put(out, "mem.dram_retries_per_req",
        ratio(mem("hier.dram_retries"), dram_requests), "retries/req",
        "mem.dram_requests");
    put(out, "mem.l1_accesses", mem("l1.accesses"), "count");
    put(out, "mem.l1_hit_rate", ratio(mem("l1.hits"), mem("l1.accesses")),
        "fraction", "mem.l1_accesses");
    put(out, "mem.l2_accesses", mem("l2.accesses"), "count");
    put(out, "mem.l2_hit_rate", ratio(mem("l2.hits"), mem("l2.accesses")),
        "fraction", "mem.l2_accesses");
    put(out, "mem.tlb_accesses", mem("l1_tlb.accesses"), "count");
    put(out, "mem.tlb_miss_rate",
        ratio(mem("l1_tlb.misses"), mem("l1_tlb.accesses")), "fraction",
        "mem.tlb_accesses");
    put(out, "mem.page_walks", mem("hier.page_walks"), "count");

    const auto kernel = [&](const std::string &name) {
        return sum(pass, &RunRecord::kernel, name, shield_cell);
    };
    const auto rcache = [&](const std::string &name) {
        return sum(pass, &RunRecord::rcache, name, shield_cell);
    };
    const double mem_insts = kernel("loads") + kernel("stores");
    put(out, "shield.mem_insts", mem_insts, "count");
    put(out, "shield.checks", kernel("checks"), "count", "shield.mem_insts");
    put(out, "shield.checks_elided", kernel("checks_elided"), "count");
    put(out, "shield.checks_covered", kernel("checks_covered"), "count");
    put(out, "shield.rcache_lookups", rcache("lookups"), "count");
    put(out, "shield.rcache_l1_hit_rate",
        ratio(rcache("l1_hits"), rcache("lookups")), "fraction",
        "shield.rcache_lookups");
    put(out, "shield.rcache_l1_evictions", rcache("l1_evictions"), "count");
    put(out, "shield.rbt_refills", kernel("rbt_refills"), "count");
    put(out, "shield.bcu_stall_cycles", kernel("bcu_stall_cycles"),
        "cycles");
}

void
add_traced_metrics(const std::vector<PassResult> &traced,
                   const std::vector<double> &traced_compiler_s,
                   const Tracer &tracer,
                   const obs::HostEngineProfiler &engine,
                   const std::vector<PassResult> &untraced, Metrics &out)
{
    using Phase = obs::HostEngineProfiler::Phase;
    double warp_insts = 0.0;
    for (const CellResult &c : traced.back().cells)
        warp_insts += static_cast<double>(c.warp_insts);
    const double sim_run_s = tracer.total("sim.run");

    put(out, "workloads.make_ms", tracer.total("workloads.make") * 1e3,
        "ms");
    put(out, "compiler.analyze_us", tracer.total("compiler.analyze") * 1e6,
        "us");
    put(out, "compiler.check_opt_us",
        tracer.total("compiler.check_opt") * 1e6, "us");
    put(out, "driver.launch_us", tracer.total("driver.launch") * 1e6, "us");
    put(out, "driver.finish_us", tracer.total("driver.finish") * 1e6, "us");
    put(out, "sim.run_s", sim_run_s, "s");
    put(out, "sim.ns_per_warp_inst", ratio(sim_run_s * 1e9, warp_insts),
        "ns", "sim.warp_insts");
    put(out, "sim.issue_s", static_cast<double>(engine.ns(Phase::Issue)) * 1e-9,
        "s");
    put(out, "sim.events_s",
        static_cast<double>(engine.ns(Phase::Events)) * 1e-9, "s");
    put(out, "sim.detach_s",
        static_cast<double>(engine.ns(Phase::Detach)) * 1e-9, "s");
    put(out, "harness.write_jsonl_ms",
        tracer.total("harness.write_jsonl") * 1e3, "ms");

    // The outside compiler calls are extra work of a traced pass, not
    // tracing cost, so they are taken out before the comparison.
    std::vector<double> traced_wall, untraced_wall;
    for (std::size_t k = 0; k < traced.size(); ++k)
        traced_wall.push_back(traced[k].wall_s - traced_compiler_s.at(k));
    for (const PassResult &p : untraced)
        untraced_wall.push_back(p.wall_s);
    put(out, "trace.untraced_s", median(untraced_wall), "s");
    put(out, "trace.overhead_frac",
        ratio(median(traced_wall), median(untraced_wall)) - 1.0, "fraction",
        "trace.untraced_s");
}

void
add_model_metrics(const SweepSpec &spec, const PassResult &profiled,
                  Metrics &out)
{
    std::map<std::string, const RunRecord *> base;
    for (std::size_t i = 0; i < spec.cells.size(); ++i)
        if (!profiled.cells[i].record.shield)
            base[pair_key(spec, i)] = &profiled.cells[i].record;

    const char *causes[] = {"bcu_stall", "rcache_miss", "dram_backpressure",
                            "mem_pending"};
    std::map<std::string, double> delta;
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        const RunRecord &r = profiled.cells[i].record;
        const auto it = base.find(pair_key(spec, i));
        if (!r.shield || it == base.end())
            continue;
        for (const char *cause : causes) {
            const std::string key = std::string("stall.") + cause;
            delta[cause] += static_cast<double>(r.obs.get(key)) -
                            static_cast<double>(it->second->obs.get(key));
        }
    }
    for (const char *cause : causes)
        put(out, std::string("model.") + cause + "_wc", delta[cause],
            "warp-cycles");
}

} // namespace perfbench
