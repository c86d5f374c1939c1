/**
 * @file
 * Figure 17: the effect of compile-time bounds-check filtering. For the
 * 17 RCache-sensitive benchmarks on the Nvidia configuration, runs two
 * degraded RCache latency settings (L1:1/L2:5 and L1:2/L2:5) with and
 * without static analysis, and reports the fraction of runtime bounds
 * checks removed.
 *
 * Paper result: static filtering recovers the (small) latency-induced
 * overhead and removes 100% of the checks for simple affine kernels,
 * but graph benchmarks (bc, bfs-dtc, gc-dtc, sssp-dwc, nw) stay near
 * 0% because their accesses are indirect.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace gpushield;
using namespace gpushield::bench;
using namespace gpushield::workloads;

namespace {

/** Fraction of dynamic bounds checks removed by the static pass. */
double
check_reduction(const GpuConfig &cfg, const BenchmarkDef &def)
{
    GpuDevice dev(cfg.mem.page_size);
    Driver drv(dev);
    const WorkloadInstance inst = def.make(drv);
    const RunOutcome out = run_workload(cfg, drv, inst, true, true);
    const double checked =
        static_cast<double>(out.result.stats.get("checks"));
    const double elided =
        static_cast<double>(out.result.stats.get("checks_elided"));
    return checked + elided == 0 ? 0.0 : elided / (checked + elided);
}

} // namespace

int
main()
{
    const GpuConfig cfg15 =
        harness::with_rcache_latency(nvidia_config(), 1, 5);
    const GpuConfig cfg25 =
        harness::with_rcache_latency(nvidia_config(), 2, 5);

    std::printf("=== Figure 17: static bounds-check filtering, Nvidia "
                "===\n");
    std::printf("%-16s %9s %9s %9s %9s %10s\n", "benchmark", "L1:1,L2:5",
                "+static", "L1:2,L2:5", "+static", "reduct(%)");

    std::vector<double> n15, n15s, n25, n25s, reds;
    harness::CsvSink csv("fig17",
                         {"benchmark", "l1_1_l2_5", "l1_1_l2_5_static",
                          "l1_2_l2_5", "l1_2_l2_5_static",
                          "check_reduction"});
    for (const BenchmarkDef &def : cuda_benchmarks()) {
        if (!def.rcache_sensitive)
            continue;
        const double a = normalized_exec_time(cfg15, def, false);
        const double as = normalized_exec_time(cfg15, def, true);
        const double b = normalized_exec_time(cfg25, def, false);
        const double bs = normalized_exec_time(cfg25, def, true);
        const double red = check_reduction(cfg15, def);
        n15.push_back(a);
        n15s.push_back(as);
        n25.push_back(b);
        n25s.push_back(bs);
        reds.push_back(red);
        std::printf("%-16s %9.4f %9.4f %9.4f %9.4f %10.1f\n",
                    def.name.c_str(), a, as, b, bs, red * 100);
        csv.row({def.name, harness::fmt(a), harness::fmt(as), harness::fmt(b),
                 harness::fmt(bs), harness::fmt(red)});
    }
    double red_avg = 0;
    for (const double r : reds)
        red_avg += r;
    red_avg /= static_cast<double>(reds.size());
    std::printf("%-16s %9.4f %9.4f %9.4f %9.4f %10.1f\n", "geomean/avg",
                harness::geomean(n15), harness::geomean(n15s),
                harness::geomean(n25), harness::geomean(n25s),
                red_avg * 100);
    std::printf("(paper: +static tracks 1.00; graph benchmarks get ~0%% "
                "reduction)\n");
    return 0;
}
