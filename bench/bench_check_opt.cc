/**
 * @file
 * Loop-aware check optimization: per-suite BCU-lookup savings.
 *
 * For each workload, runs the shield (static elision off, so every
 * access pays a runtime check) with and without the check-opt pass and
 * reports dynamic BCU lookups before/after plus the static
 * hoist/widen/elide classification of the kernel's BAT rows. The
 * loop-heavy suites are gated: the pass must remove at least 30% of
 * their per-iteration BCU lookups (a widened loop of trip T collapses
 * T lookups per warp per instruction into one cover probe).
 *
 * Writes BENCH_check_opt.json (override with --json PATH) and exits
 * nonzero if the gate fails.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "compiler/check_opt.h"
#include "compiler/static_analysis.h"
#include "workloads/kernels.h"

using namespace gpushield;
using namespace gpushield::bench;
using namespace gpushield::workloads;

namespace {

WorkloadInstance
looped_instance(Driver &driver, const std::string &name, unsigned trip,
                std::uint32_t ntid, std::uint32_t nctaid)
{
    PatternParams p;
    p.name = name;
    p.inner_iters = trip;

    WorkloadInstance w;
    w.program = make_looped(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid * trip;
    w.buffers.push_back(driver.create_buffer(n * 4, false, false,
                                             name + ".in"));
    std::vector<std::int32_t> data(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = static_cast<std::int32_t>(i & 0xFFFF);
    driver.upload(w.buffers.back(), data.data(), data.size() * 4);
    w.buffers.push_back(
        driver.create_buffer(n * 4, false, false, name + ".out"));
    return w;
}

/** One benchmarked workload: a factory plus whether the 30% gate
 *  applies (loop-heavy / coalescible suites only; non-affine and
 *  indirect rows are documented as near-zero, like Fig. 17's static
 *  pass). */
struct Suite
{
    std::string name;
    bool gated = false;
    std::function<WorkloadInstance(Driver &)> make;
};

struct Row
{
    std::string name;
    bool gated = false;
    std::uint64_t checks_base = 0; //!< BCU lookups, pass off
    std::uint64_t checks_opt = 0;  //!< BCU lookups, pass on (incl. probes)
    std::uint64_t covered = 0;     //!< checks skipped behind a cover
    std::uint64_t probes = 0;
    std::uint64_t probe_fails = 0;
    double saved = 0.0;
    CheckOptStats stat; //!< static BAT classification
};

/** Mirrors Driver::launch's StaticLaunchInfo for a bench instance. */
StaticLaunchInfo
static_info(Driver &driver, const WorkloadInstance &w)
{
    StaticLaunchInfo info;
    info.ntid = w.ntid;
    info.nctaid = w.nctaid;
    const std::size_t nargs = w.program.args.size();
    info.arg_buffer_sizes.assign(nargs, 0);
    info.arg_buffer_pow2.assign(nargs, false);
    info.arg_buffer_readonly.assign(nargs, false);
    info.scalar_values.assign(nargs, std::nullopt);
    for (std::size_t a = 0; a < nargs; ++a) {
        const KernelArgSpec &spec = w.program.args[a];
        if (spec.is_pointer) {
            if (spec.buffer_index >= 0 &&
                static_cast<std::size_t>(spec.buffer_index) <
                    w.buffers.size()) {
                const VaRegion &r =
                    driver.region(w.buffers[spec.buffer_index]);
                info.arg_buffer_sizes[a] = r.size;
                info.arg_buffer_readonly[a] = r.read_only;
            }
        } else if (a < w.scalar_static.size() && w.scalar_static[a] &&
                   a < w.scalars.size()) {
            info.scalar_values[a] = w.scalars[a];
        }
    }
    return info;
}

CheckOptStats
optimize_checks_stats(Driver &drv, const WorkloadInstance &inst)
{
    BoundsAnalysisTable bat =
        analyze_kernel(inst.program, static_info(drv, inst));
    return optimize_checks(bat, inst.program);
}

Row
run_suite(const GpuConfig &cfg, const Suite &s)
{
    Row row;
    row.name = s.name;
    row.gated = s.gated;

    {
        GpuDevice dev(cfg.mem.page_size);
        Driver drv(dev);
        const WorkloadInstance inst = s.make(drv);
        const RunOutcome out = run_workload(cfg, drv, inst, true, false);
        row.checks_base = out.result.stats.get("checks");
    }
    {
        GpuDevice dev(cfg.mem.page_size);
        Driver drv(dev);
        WorkloadInstance inst = s.make(drv);
        inst.optimize_checks = true;
        row.stat = optimize_checks_stats(drv, inst);
        const RunOutcome out = run_workload(cfg, drv, inst, true, false);
        row.checks_opt = out.result.stats.get("checks");
        row.covered = out.result.stats.get("checks_covered");
        row.probes = out.result.stats.get("cover_probes");
        row.probe_fails = out.result.stats.get("cover_probe_fails");
    }
    row.saved =
        row.checks_base == 0
            ? 0.0
            : static_cast<double>(row.checks_base - row.checks_opt) /
                  static_cast<double>(row.checks_base);
    return row;
}

/** Named cuda-set benchmark factory (aborts on an unknown name). */
std::function<WorkloadInstance(Driver &)>
cuda(const std::string &name)
{
    const BenchmarkDef *def = find_benchmark(name);
    if (def == nullptr)
        fatal("bench_check_opt: unknown benchmark " + name);
    return def->make;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_check_opt.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
    }

    const GpuConfig cfg = nvidia_config();
    const std::vector<Suite> suites = {
        {"looped_t8", true,
         [](Driver &d) { return looped_instance(d, "looped_t8", 8, 256, 48); }},
        {"looped_t32", true,
         [](Driver &d) {
             return looped_instance(d, "looped_t32", 32, 256, 24);
         }},
        {"ConvSep", true, cuda("ConvSep")},
        {"stencil", true, cuda("stencil")},
        // Non-affine rows stay per-access by design (ungated): mm's
        // tile indices divide/mod by a runtime dimension, vectoradd has
        // one access per base, spmv's edge loop is indirect — the same
        // kernels Fig. 17's static pass leaves near 0%.
        {"mm", false, cuda("mm")},
        {"vectoradd", false, cuda("vectoradd")},
        {"spmv", false, cuda("spmv")},
    };

    std::printf("=== Loop-aware check optimization: BCU lookups saved "
                "===\n");
    std::printf("%-12s %10s %10s %8s %7s %6s %6s %6s %9s\n", "suite",
                "base", "opt", "covered", "probes", "hoist", "widen",
                "elide", "saved(%)");

    std::vector<Row> rows;
    bool gate_pass = true;
    double gated_base = 0, gated_opt = 0;
    for (const Suite &s : suites) {
        const Row r = run_suite(cfg, s);
        std::printf("%-12s %10llu %10llu %8llu %7llu %6u %6u %6u %8.1f%s\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.checks_base),
                    static_cast<unsigned long long>(r.checks_opt),
                    static_cast<unsigned long long>(r.covered),
                    static_cast<unsigned long long>(r.probes),
                    r.stat.hoisted, r.stat.widened, r.stat.elided,
                    r.saved * 100, r.gated ? " *" : "");
        if (r.gated) {
            gated_base += static_cast<double>(r.checks_base);
            gated_opt += static_cast<double>(r.checks_opt);
            if (r.saved < 0.30)
                gate_pass = false;
        }
        rows.push_back(r);
    }
    const double gated_saved =
        gated_base == 0 ? 0.0 : (gated_base - gated_opt) / gated_base;
    std::printf("(*gated loop-heavy suites: %.1f%% of BCU lookups saved; "
                "gate >=30%% per suite: %s)\n", gated_saved * 100,
                gate_pass ? "PASS" : "FAIL");

    std::ofstream out(json_path);
    if (!out) {
        std::fprintf(stderr, "bench_check_opt: cannot write %s\n",
                     json_path.c_str());
        return 2;
    }
    out << "{\"bench\":\"check_opt\",\"gate_threshold\":0.30,"
        << "\"gate_pass\":" << (gate_pass ? "true" : "false")
        << ",\"gated_saved_fraction\":" << harness::fmt(gated_saved)
        << ",\"suites\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        out << (i ? "," : "") << "{\"name\":" << json_quote(r.name)
            << ",\"gated\":" << (r.gated ? "true" : "false")
            << ",\"bcu_lookups_base\":" << r.checks_base
            << ",\"bcu_lookups_opt\":" << r.checks_opt
            << ",\"checks_covered\":" << r.covered
            << ",\"cover_probes\":" << r.probes
            << ",\"cover_probe_fails\":" << r.probe_fails
            << ",\"saved_fraction\":" << harness::fmt(r.saved)
            << ",\"bat_rows\":" << r.stat.rows
            << ",\"eligible\":" << r.stat.eligible
            << ",\"hoisted\":" << r.stat.hoisted
            << ",\"widened\":" << r.stat.widened
            << ",\"elided\":" << r.stat.elided
            << ",\"per_access\":" << r.stat.per_access << "}";
    }
    out << "]}\n";
    return gate_pass ? 0 : 1;
}
