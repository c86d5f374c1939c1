#include "harness/executor.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <chrono>
#include <mutex>
#include <ostream>

#include "common/log.h"
#include "conform/oracle.h"
#include "common/thread_pool.h"
#include "obs/profiler.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace gpushield::harness {

namespace {

using workloads::BenchmarkDef;
using workloads::WorkloadInstance;

const BenchmarkDef &
find_in_set(const std::string &set, const std::string &name)
{
    const BenchmarkDef *def = workloads::find_benchmark(name, set);
    if (def == nullptr)
        throw SimulationError("sweep: no benchmark " + name + " in set " +
                              set);
    return *def;
}

/** Core masks for the cell's placement mode. */
std::pair<std::uint64_t, std::uint64_t>
placement_masks(Placement placement, unsigned num_cores)
{
    const std::uint64_t all =
        num_cores >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << num_cores) - 1;
    if (placement != Placement::kSplit)
        return {all, all};
    const std::uint64_t lower = (std::uint64_t{1} << (num_cores / 2)) - 1;
    return {lower, all & ~lower};
}

/** Two kernels co-scheduled on one GPU; cycles = makespan (§6.2). */
void
run_pair_cell(const SweepSpec &spec, const CellSpec &cell, Driver &driver,
              RunRecord &r, obs::Profiler *prof,
              conform::LaneOracle *oracle)
{
    const GpuConfig &cfg = spec.config(cell.config);
    const BenchmarkDef &a = find_in_set(cell.set, cell.workload);
    const BenchmarkDef &b = find_in_set(cell.set, cell.workload_b);
    WorkloadInstance wa = a.make(driver);
    WorkloadInstance wb = b.make(driver);
    wa.optimize_checks = cell.shield && cell.check_opt;
    wb.optimize_checks = cell.shield && cell.check_opt;
    const auto [mask_a, mask_b] =
        placement_masks(cell.placement, cfg.num_cores);

    Gpu gpu(cfg, driver);
    if (prof != nullptr)
        gpu.set_profiler(prof);
    if (oracle != nullptr)
        gpu.set_lane_observer(oracle);
    const std::size_t ia =
        gpu.launch(driver.launch(wa.make_config(cell.shield, cell.use_static)),
                   mask_a);
    const std::size_t ib =
        gpu.launch(driver.launch(wb.make_config(cell.shield, cell.use_static)),
                   mask_b);
    gpu.run();

    for (const std::size_t idx : {ia, ib}) {
        const KernelResult res = gpu.result(idx);
        r.violations += res.violations.size();
        r.aborted |= res.aborted;
        r.kernel.merge(res.stats);
        driver.finish(gpu.launch_state(idx));
    }
    r.cycles = gpu.now(); // makespan of the pair
    r.rcache = gpu.rcache_stats();
    r.bcu = gpu.bcu_stats();
    r.mem = workloads::collect_mem_stats(gpu);
    r.l1_rcache_hit_rate = gpu.rcache_l1_hit_rate();
    r.cycles_skipped = gpu.cycles_skipped();
}

void
run_single_cell(const SweepSpec &spec, const CellSpec &cell, Driver &driver,
                RunRecord &r, obs::Profiler *prof,
                conform::LaneOracle *oracle)
{
    const GpuConfig &cfg = spec.config(cell.config);
    const BenchmarkDef &def = find_in_set(cell.set, cell.workload);
    WorkloadInstance inst = def.make(driver);
    inst.optimize_checks = cell.shield && cell.check_opt;

    if (cell.launches > 1) {
        const workloads::MultiLaunchOutcome out = workloads::run_workload_n(
            cfg, driver, inst, cell.launches, cell.shield, cell.use_static,
            0, 0, prof);
        r.cycles = out.total_cycles;
        r.violations = out.violations;
        r.aborted = out.aborted;
        r.rcache = out.rcache;
        r.bcu = out.bcu;
        r.mem = out.mem;
        r.l1_rcache_hit_rate = r.rcache.ratio("l1_hits", "lookups");
        r.cycles_skipped = out.cycles_skipped;
        return;
    }

    const workloads::RunOutcome out = workloads::run_workload(
        cfg, driver, inst, cell.shield, cell.use_static, prof, oracle);
    r.cycles = out.result.cycles();
    r.violations = out.result.violations.size();
    r.aborted = out.result.aborted;
    r.rcache = out.rcache;
    r.bcu = out.bcu;
    r.mem = out.mem;
    r.kernel = out.result.stats;
    r.kernel.set("canary_reports",
                 static_cast<std::uint64_t>(out.canaries.size()));
    r.l1_rcache_hit_rate = out.l1_rcache_hit_rate;
    r.cycles_skipped = out.cycles_skipped;
}

} // namespace

RunRecord
run_cell(const SweepSpec &spec, std::size_t index, bool profile,
         bool conform)
{
    const CellSpec &cell = spec.cells.at(index);

    RunRecord r;
    r.key = cell_key(spec, cell);
    r.suite = spec.name;
    r.set = cell.set;
    r.workload = cell.workload;
    r.workload_b = cell.workload_b;
    r.config = cell.config;
    r.placement = to_string(cell.placement);
    r.shield = cell.shield;
    r.use_static = cell.use_static;
    r.launches = cell.launches;
    r.seed = cell_seed(spec, cell);

    try {
        const GpuConfig &cfg = spec.config(cell.config);
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev, {}, r.seed);
        driver.set_shield_backend(cfg.shield.backend);
        obs::Profiler prof;
        obs::Profiler *p = profile ? &prof : nullptr;
        // The oracle only has verdicts to second-guess on shield cells,
        // and run_workload_n has no observer seam (launches > 1 reuses
        // one device across launches) — leave those cells unconformed.
        std::optional<conform::LaneOracle> oracle;
        if (conform && cell.shield && cell.launches <= 1)
            oracle.emplace(driver);
        conform::LaneOracle *o = oracle ? &*oracle : nullptr;
        if (cell.workload_b.empty())
            run_single_cell(spec, cell, driver, r, p, o);
        else
            run_pair_cell(spec, cell, driver, r, p, o);
        if (profile)
            r.obs = prof.summary().to_statset();
        if (o != nullptr)
            r.conform = o->to_statset();
        r.ok = true;
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    return r;
}

bool
SweepResult::all_ok() const
{
    for (const RunRecord &r : metrics.records())
        if (!r.ok)
            return false;
    return true;
}

void
SweepResult::summarize(std::ostream &os) const
{
    metrics.write_summary(os, wall_seconds, jobs);
}

SweepResult
run_sweep(const SweepSpec &spec, const SweepOptions &opts)
{
    const auto t0 = std::chrono::steady_clock::now();

    SweepResult result;
    result.jobs = std::max(1u, opts.jobs);
    result.metrics = MetricsRegistry(spec.cells.size());

    std::mutex progress_mu;
    std::atomic<std::size_t> done{0};
    const auto run_one = [&](std::size_t i) {
        RunRecord r = run_cell(spec, i, opts.profile, opts.conform);
        const std::size_t n = ++done;
        if (opts.progress != nullptr) {
            std::lock_guard<std::mutex> lock(progress_mu);
            *opts.progress << "[" << n << "/" << spec.cells.size() << "] "
                           << r.key << (r.ok ? "" : "  FAILED") << "\n";
        }
        result.metrics.record(i, std::move(r));
    };

    if (result.jobs == 1) {
        for (std::size_t i = 0; i < spec.cells.size(); ++i)
            run_one(i);
    } else {
        ThreadPool pool(result.jobs);
        for (std::size_t i = 0; i < spec.cells.size(); ++i)
            pool.submit([&run_one, i] { run_one(i); });
        pool.wait_idle();
    }

    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
}

} // namespace gpushield::harness
