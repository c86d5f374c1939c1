/**
 * @file
 * Concurrent-kernel example (§6.2): runs two kernels simultaneously on
 * the Intel-like GPU in both sharing modes — inter-core (disjoint core
 * halves) and intra-core (fine-grained core sharing) — with GPUShield
 * protecting both. Each kernel has its own RBT and per-kernel key; the
 * RCache kernel-ID field keeps their metadata apart on shared cores.
 */

#include <cstdio>

#include "driver/driver.h"
#include "sim/config.h"
#include "sim/gpu.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

using namespace gpushield;
using namespace gpushield::workloads;

int
main()
{
    const GpuConfig cfg = intel_config();
    const BenchmarkDef *a = find_benchmark("hotspot3D", "opencl");
    const BenchmarkDef *b = find_benchmark("streamcluster", "opencl");
    if (a == nullptr || b == nullptr) {
        std::printf("benchmarks not found\n");
        return 1;
    }

    for (const bool intra : {false, true}) {
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev);
        const WorkloadInstance wa = a->make(driver);
        const WorkloadInstance wb = b->make(driver);

        const std::uint64_t all =
            (std::uint64_t{1} << cfg.num_cores) - 1;
        const std::uint64_t lower =
            (std::uint64_t{1} << (cfg.num_cores / 2)) - 1;

        Gpu gpu(cfg, driver);
        const auto ia = gpu.launch(driver.launch(wa.make_config(true, false)),
                                   intra ? all : lower);
        const auto ib = gpu.launch(driver.launch(wb.make_config(true, false)),
                                   intra ? all : (all & ~lower));
        gpu.run();

        const KernelResult ra = gpu.result(ia);
        const KernelResult rb = gpu.result(ib);
        std::printf("=== %s-core sharing ===\n", intra ? "intra" : "inter");
        std::printf("  %-14s kernel_id=%-3u cycles=%-8llu violations=%zu\n",
                    ra.name.c_str(), ra.kernel_id,
                    static_cast<unsigned long long>(ra.cycles()),
                    ra.violations.size());
        std::printf("  %-14s kernel_id=%-3u cycles=%-8llu violations=%zu\n",
                    rb.name.c_str(), rb.kernel_id,
                    static_cast<unsigned long long>(rb.cycles()),
                    rb.violations.size());
        std::printf("  makespan: %llu cycles; RCache L1 hit rate %.1f%%\n",
                    static_cast<unsigned long long>(gpu.now()),
                    100 * gpu.rcache_l1_hit_rate());
    }
    return 0;
}
