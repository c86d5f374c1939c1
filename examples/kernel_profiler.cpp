/**
 * @file
 * GT-Pin-style profiling example: attaches the trace/profiling
 * observers to a simulated run of any corpus benchmark and prints the
 * opcode mix, the load/store fraction (the statistic behind §8.5's
 * streamcluster analysis), divergence, coalescing quality, page
 * footprint (Fig. 11's metric), and the first lines of the raw trace.
 *
 * Usage: kernel_profiler [benchmark=streamcluster] [trace_lines=8]
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "driver/driver.h"
#include "sim/config.h"
#include "sim/gpu.h"
#include "trace/trace.h"
#include "workloads/suites.h"

using namespace gpushield;
using namespace gpushield::workloads;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "streamcluster";
    const unsigned trace_lines =
        argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 8;

    const BenchmarkDef *def = find_benchmark(name);
    if (def == nullptr) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
        return 1;
    }

    const GpuConfig cfg = nvidia_config();
    GpuDevice dev(cfg.mem.page_size);
    Driver driver(dev);
    const WorkloadInstance inst = def->make(driver);

    // Compose observers: trace + opcode mix + page footprint.
    std::ostringstream trace_buf;
    trace::TraceWriter writer(trace_buf, trace_lines);
    trace::OpProfiler ops;
    trace::AddressProfiler pages(kPageSize4K);

    struct Fanout : LaneObserver
    {
        std::vector<LaneObserver *> sinks;
        void
        on_step(CoreId core, KernelId kernel, const WarpState &warp,
                const Instr &instr) override
        {
            for (LaneObserver *sink : sinks)
                sink->on_step(core, kernel, warp, instr);
        }
        void
        on_mem_check(const MemCheckEvent &ev) override
        {
            for (LaneObserver *sink : sinks)
                sink->on_mem_check(ev);
        }
    } fanout;
    fanout.sinks = {&writer, &ops, &pages};

    Gpu gpu(cfg, driver);
    gpu.set_lane_observer(&fanout);
    const auto idx = gpu.launch(driver.launch(inst.make_config(true, false)));
    gpu.run();
    const KernelResult result = gpu.result(idx);

    std::printf("=== %s: %llu cycles, %llu warp-instructions ===\n",
                name.c_str(),
                static_cast<unsigned long long>(result.cycles()),
                static_cast<unsigned long long>(ops.total()));
    std::printf("\nopcode mix:\n");
    std::ostringstream report;
    ops.report(report);
    std::printf("%s", report.str().c_str());

    std::printf("\nload/store fraction : %.2f%%  (streamcluster on real "
                "HW: 31.22%%, §8.5)\n",
                100 * ops.ldst_fraction());
    std::printf("avg active lanes    : %.1f / 32\n",
                ops.avg_active_lanes());
    std::printf("avg lines per mem op: %.2f (1.0 = fully coalesced)\n",
                ops.avg_mem_span_lines());
    std::printf("4KB pages touched   : %zu (Fig. 11's footprint "
                "metric)\n",
                pages.pages_touched());

    std::printf("\nfirst %u trace records:\n%s", trace_lines,
                trace_buf.str().c_str());
    return 0;
}
