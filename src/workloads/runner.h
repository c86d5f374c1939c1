/**
 * @file
 * Convenience harness: launch a WorkloadInstance on a fresh or existing
 * GPU, run to completion, and collect results. Shared by tests,
 * examples, and the benchmark binaries.
 */

#ifndef GPUSHIELD_WORKLOADS_RUNNER_H
#define GPUSHIELD_WORKLOADS_RUNNER_H

#include <vector>

#include "sim/gpu.h"
#include "workloads/suites.h"

namespace gpushield::workloads {

/** Everything a single-kernel run produces. */
struct RunOutcome
{
    KernelResult result;
    std::vector<CanaryReport> canaries;
    StatSet rcache;       //!< aggregated RCache stats
    StatSet bcu;          //!< aggregated BCU stats
    StatSet mem;          //!< hierarchy stats (see collect_mem_stats)
    double l1_rcache_hit_rate = 0.0;
    /** Idle cycles the event-driven engine jumped over (Gpu::cycles_skipped). */
    std::uint64_t cycles_skipped = 0;
};

/**
 * Aggregates the memory-hierarchy counters of @p gpu into one StatSet
 * with component prefixes: "hier.", "l1." / "l1_tlb." (merged across
 * cores), "l2.", "l2_tlb.", and "dram.".
 */
StatSet collect_mem_stats(Gpu &gpu);

/** Runs @p instance once on a freshly constructed GPU. When
 *  @p profiler is non-null it observes the run (obs/profiler.h); when
 *  @p lane_obs is non-null it is attached before the launch so it sees
 *  every step and bounds verdict (sim/observer.h). */
RunOutcome run_workload(const GpuConfig &cfg, Driver &driver,
                        const WorkloadInstance &instance, bool shield,
                        bool use_static,
                        obs::Profiler *profiler = nullptr,
                        LaneObserver *lane_obs = nullptr);

/**
 * Runs @p instance @p launches times back-to-back on one GPU. Each
 * kernel's termination invalidates only that kernel's RCache entries,
 * through RCache::invalidate_kernel (§5.5, §6.2). Returns total cycles
 * across all launches plus the aggregated stats of the final state.
 */
struct MultiLaunchOutcome
{
    Cycle total_cycles = 0;
    StatSet rcache;
    StatSet bcu;
    StatSet mem;          //!< hierarchy stats (see collect_mem_stats)
    std::uint64_t violations = 0;
    bool aborted = false; //!< any launch aborted (precise exceptions)
    /** Idle cycles the event-driven engine jumped over, all launches. */
    std::uint64_t cycles_skipped = 0;
};

MultiLaunchOutcome run_workload_n(const GpuConfig &cfg, Driver &driver,
                                  const WorkloadInstance &instance,
                                  unsigned launches, bool shield,
                                  bool use_static,
                                  Cycle extra_cycles_per_mem = 0,
                                  unsigned extra_transactions = 0,
                                  obs::Profiler *profiler = nullptr);

} // namespace gpushield::workloads

#endif // GPUSHIELD_WORKLOADS_RUNNER_H
