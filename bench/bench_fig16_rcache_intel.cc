/**
 * @file
 * Figure 16: L1 RCache hit rate of the 17 OpenCL benchmarks on the
 * Intel configuration (24 cores, 7 HW threads, vectorized kernels),
 * sweeping 1-16 L1 RCache entries. Paper result: near-100% with 4
 * entries, like the Nvidia architecture.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace gpushield;
using namespace gpushield::bench;
using namespace gpushield::workloads;

int
main()
{
    const unsigned sizes[] = {1, 2, 4, 8, 16};

    std::printf("=== Figure 16: L1 RCache hit rate (%%), Intel ===\n");
    std::printf("%-18s", "benchmark");
    for (const unsigned s : sizes)
        std::printf(" %8u-ent", s);
    std::printf("\n");

    std::vector<std::vector<double>> per_size(std::size(sizes));
    harness::CsvSink csv("fig16", {"benchmark", "entries", "l1_hit_rate"});
    for (const BenchmarkDef &def : opencl_benchmarks()) {
        std::printf("%-18s", def.name.c_str());
        for (std::size_t si = 0; si < std::size(sizes); ++si) {
            const GpuConfig cfg =
                harness::with_l1_entries(intel_config(), sizes[si]);
            GpuDevice dev(cfg.mem.page_size);
            Driver drv(dev);
            const WorkloadInstance inst = def.make(drv);
            const RunOutcome out =
                run_workload(cfg, drv, inst, true, false);
            per_size[si].push_back(out.l1_rcache_hit_rate);
            std::printf(" %11.1f", out.l1_rcache_hit_rate * 100);
            csv.row({def.name, std::to_string(sizes[si]),
                     harness::fmt(out.l1_rcache_hit_rate)});
        }
        std::printf("\n");
    }

    std::printf("%-18s", "geomean");
    for (std::size_t si = 0; si < std::size(sizes); ++si)
        std::printf(" %11.1f", harness::geomean(per_size[si]) * 100);
    std::printf("\n(paper: near-100%% at 4 entries)\n");
    return 0;
}
