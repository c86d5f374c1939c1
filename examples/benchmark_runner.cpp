/**
 * @file
 * Command-line benchmark runner: executes any named benchmark from the
 * corpus on the Nvidia- or Intel-like GPU, with or without GPUShield,
 * and prints the run's statistics.
 *
 * Usage:
 *   benchmark_runner [name] [--intel] [--no-shield] [--static] [--list]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "driver/driver.h"
#include "sim/config.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

using namespace gpushield;
using namespace gpushield::workloads;

int
main(int argc, char **argv)
{
    std::string name = "streamcluster";
    bool intel = false;
    bool shield = true;
    bool use_static = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--intel") == 0) {
            intel = true;
        } else if (std::strcmp(argv[i], "--no-shield") == 0) {
            shield = false;
        } else if (std::strcmp(argv[i], "--static") == 0) {
            use_static = true;
        } else if (std::strcmp(argv[i], "--list") == 0) {
            std::printf("CUDA benchmarks:\n");
            for (const BenchmarkDef &d : cuda_benchmarks())
                std::printf("  %-16s %-10s %s\n", d.name.c_str(),
                            d.suite.c_str(), d.category.c_str());
            std::printf("OpenCL benchmarks:\n");
            for (const BenchmarkDef &d : opencl_benchmarks())
                std::printf("  %s\n", d.name.c_str());
            return 0;
        } else {
            name = argv[i];
        }
    }

    const BenchmarkDef *def =
        find_benchmark(name, intel ? "opencl" : "cuda");
    if (def == nullptr)
        def = find_benchmark(name);
    if (def == nullptr) {
        std::fprintf(stderr, "unknown benchmark '%s' (try --list)\n",
                     name.c_str());
        return 1;
    }

    const GpuConfig cfg = intel ? intel_config() : nvidia_config();
    GpuDevice dev(cfg.mem.page_size);
    Driver driver(dev);
    const WorkloadInstance inst = def->make(driver);
    const RunOutcome out =
        run_workload(cfg, driver, inst, shield, use_static);

    std::printf("benchmark      %s (%s / %s) on %s\n", def->name.c_str(),
                def->suite.c_str(), def->category.c_str(),
                cfg.name.c_str());
    std::printf("grid           %u x %u threads\n", inst.nctaid, inst.ntid);
    std::printf("cycles         %llu%s\n",
                static_cast<unsigned long long>(out.result.cycles()),
                out.result.aborted ? "  (ABORTED)" : "");
    std::printf("GPUShield      %s%s\n", shield ? "on" : "off",
                use_static ? " + static analysis" : "");
    for (const char *key :
         {"instructions", "loads", "stores", "transactions", "checks",
          "checks_elided", "rbt_refills", "bcu_stall_cycles",
          "violations"}) {
        std::printf("%-14s %llu\n", key,
                    static_cast<unsigned long long>(
                        out.result.stats.get(key)));
    }
    if (shield)
        std::printf("L1 RCache hit  %.1f%%\n",
                    100 * out.l1_rcache_hit_rate);
    return out.result.aborted ? 1 : 0;
}
