/**
 * @file
 * Figure 19: software overflow-detection tools versus GPUShield on the
 * Rodinia subset (bfs, gaussian, heartwall, hotspot, kmeans, lavaMD,
 * lud, particlefilter, streamcluster).
 *
 * Paper result: CUDA-MEMCHECK 72.3x, clArmor 3.1x, GMOD 1.5x average
 * slowdown; GPUShield 0.8%. streamcluster is the worst case for
 * MEMCHECK (224x) and GMOD (109x) because it launches its kernel ~1000
 * times. Also reports the static bounds-check reduction ratio.
 */

#include <cstdio>
#include <vector>

#include "baselines/memcheck.h"
#include "bench_util.h"

using namespace gpushield;
using namespace gpushield::bench;
using namespace gpushield::baselines;
using namespace gpushield::workloads;

namespace {

/** Launches per benchmark: streamcluster is launch-heavy (paper: 1000;
 *  scaled to 100 to keep the harness fast — the per-launch cost model
 *  is linear, so the ratio is unchanged). */
unsigned
launches_for(const std::string &name)
{
    return name == "streamcluster" ? 100 : 1;
}

double
run_tool(const GpuConfig &cfg, const BenchmarkDef &def,
         const SwToolModel *tool, bool shield, bool use_static,
         Cycle *baseline_io)
{
    GpuDevice dev(cfg.mem.page_size);
    Driver drv(dev);
    const WorkloadInstance inst = def.make(drv);
    const unsigned launches = launches_for(def.name);

    const MultiLaunchOutcome out = run_workload_n(
        cfg, drv, inst, launches, shield, use_static,
        tool ? tool->extra_cycles_per_mem : 0,
        tool ? tool->extra_transactions : 0);

    Cycle total = out.total_cycles;
    if (tool) {
        unsigned buffers = 0;
        for (const KernelArgSpec &arg : inst.program.args)
            buffers += arg.is_pointer;
        std::uint64_t bytes = 0;
        for (const BufferHandle h : inst.buffers)
            bytes += drv.region(h).size;
        total += host_overhead(*tool, buffers, bytes / 1024, launches);
    }
    if (baseline_io && !tool && !shield)
        *baseline_io = total;
    return static_cast<double>(total);
}

} // namespace

int
main()
{
    const GpuConfig cfg = nvidia_config();
    const SwToolModel memcheck = memcheck_model();
    const SwToolModel clarmor = clarmor_model();
    const SwToolModel gmod = gmod_model();

    std::printf("=== Figure 19: software tools vs GPUShield, Rodinia ===\n");
    std::printf("%-16s %10s %9s %9s %10s %10s\n", "benchmark", "MEMCHECK",
                "GMOD", "clArmor", "GPUShield", "reduct(%)");

    std::vector<double> mc_all, gm_all, ca_all, gs_all;
    harness::CsvSink csv(
        "fig19", {"benchmark", "memcheck", "gmod", "clarmor", "gpushield",
                  "check_reduction"});
    for (const BenchmarkDef &def : rodinia_fig19_benchmarks()) {
        Cycle baseline = 0;
        const double base =
            run_tool(cfg, def, nullptr, false, false, &baseline);
        const double mc =
            run_tool(cfg, def, &memcheck, false, false, nullptr) / base;
        const double gm =
            run_tool(cfg, def, &gmod, false, false, nullptr) / base;
        const double ca =
            run_tool(cfg, def, &clarmor, false, false, nullptr) / base;
        const double gs =
            run_tool(cfg, def, nullptr, true, false, nullptr) / base;

        // Static reduction ratio (checks removed at compile time).
        GpuDevice dev(cfg.mem.page_size);
        Driver drv(dev);
        const WorkloadInstance inst = def.make(drv);
        const RunOutcome stat = run_workload(cfg, drv, inst, true, true);
        const double checked =
            static_cast<double>(stat.result.stats.get("checks"));
        const double elided =
            static_cast<double>(stat.result.stats.get("checks_elided"));
        const double red =
            checked + elided == 0 ? 0.0 : elided / (checked + elided);

        mc_all.push_back(mc);
        gm_all.push_back(gm);
        ca_all.push_back(ca);
        gs_all.push_back(gs);
        std::printf("%-16s %10.1f %9.1f %9.1f %10.3f %10.1f\n",
                    def.name.c_str(), mc, gm, ca, gs, red * 100);
        csv.row({def.name, harness::fmt(mc, 1), harness::fmt(gm, 1),
                 harness::fmt(ca, 1), harness::fmt(gs, 3),
                 harness::fmt(red)});
    }
    std::printf("%-16s %10.1f %9.1f %9.1f %10.3f\n", "geomean",
                harness::geomean(mc_all), harness::geomean(gm_all),
                harness::geomean(ca_all), harness::geomean(gs_all));
    std::printf("(paper averages: MEMCHECK 72.3x, clArmor 3.1x, GMOD "
                "1.5x, GPUShield 1.008x;\n streamcluster worst: MEMCHECK "
                "224x, GMOD 109x)\n");
    return 0;
}
