/**
 * @file
 * Shared helpers for the experiment harnesses: the worker count and
 * the shield-on/shield-off cycle ratio. The CSV sink, number
 * formatting, geometric mean and config tweaks live in the sweep
 * harness (src/harness/); new experiments should target the harness
 * directly (see docs/HARNESS.md).
 */

#ifndef GPUSHIELD_BENCH_BENCH_UTIL_H
#define GPUSHIELD_BENCH_BENCH_UTIL_H

#include <cstdlib>
#include <string>
#include <vector>

#include "common/decimal.h"
#include "driver/driver.h"
#include "harness/metrics.h"
#include "harness/suites.h"
#include "common/thread_pool.h"
#include "sim/config.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace gpushield::bench {

/** Worker count for sweep-backed benches: $GPUSHIELD_JOBS or all
 *  cores. A value outside [1, ThreadPool::kMaxJobs] is a usage error:
 *  prints the range and exits 2 before any worker starts. */
inline unsigned
default_jobs()
{
    const char *env = std::getenv("GPUSHIELD_JOBS");
    if (env == nullptr)
        return ThreadPool::hardware_jobs();
    std::uint64_t jobs = 0;
    if (!parse_flag("bench", "GPUSHIELD_JOBS", env, 1,
                    ThreadPool::kMaxJobs, jobs))
        std::exit(2);
    return static_cast<unsigned>(jobs);
}

/**
 * Runs one benchmark twice — no bounds checking vs GPUShield — on fresh
 * device contexts and returns shielded/baseline cycles.
 */
inline double
normalized_exec_time(const GpuConfig &cfg,
                     const workloads::BenchmarkDef &def, bool use_static)
{
    const std::uint64_t page = cfg.mem.page_size;

    GpuDevice dev_base(page);
    Driver drv_base(dev_base);
    const workloads::WorkloadInstance base_inst = def.make(drv_base);
    const Cycle base =
        workloads::run_workload(cfg, drv_base, base_inst, false, false)
            .result.cycles();

    GpuDevice dev_shield(page);
    Driver drv_shield(dev_shield);
    const workloads::WorkloadInstance shield_inst = def.make(drv_shield);
    const Cycle shielded =
        workloads::run_workload(cfg, drv_shield, shield_inst, true,
                                use_static)
            .result.cycles();

    return static_cast<double>(shielded) / static_cast<double>(base);
}

} // namespace gpushield::bench

#endif // GPUSHIELD_BENCH_BENCH_UTIL_H
