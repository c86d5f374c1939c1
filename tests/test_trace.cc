/**
 * @file
 * Tests for the GT-Pin-style instrumentation layer: trace writing,
 * opcode/memory profiling, and address footprint profiling.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "driver/driver.h"
#include "sim/config.h"
#include "sim/gpu.h"
#include "trace/trace.h"
#include "workloads/kernels.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

using namespace workloads;

GpuConfig
small_config()
{
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 2;
    return cfg;
}

/** Runs vecadd with an observer attached; returns the kernel result. */
KernelResult
run_with_observer(LaneObserver *observer, std::uint32_t ntid = 64,
                  std::uint32_t nctaid = 2)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "vec";
    p.inputs = 2;
    p.inner_iters = 1;
    WorkloadInstance w;
    w.program = make_streaming(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    for (int i = 0; i < 3; ++i)
        w.buffers.push_back(driver.create_buffer(n * 4));

    Gpu gpu(small_config(), driver);
    gpu.set_lane_observer(observer);
    const auto idx = gpu.launch(driver.launch(w.make_config(true, false)));
    gpu.run();
    return gpu.result(idx);
}

TEST(TraceWriter, OneRecordPerIssuedInstruction)
{
    std::ostringstream os;
    trace::TraceWriter writer(os);
    const KernelResult r = run_with_observer(&writer);
    EXPECT_EQ(writer.records(), r.stats.get("instructions"));

    // One line per record.
    std::uint64_t lines = 0;
    for (const char ch : os.str())
        lines += ch == '\n';
    EXPECT_EQ(lines, writer.records());
    // Memory records carry address ranges.
    EXPECT_NE(os.str().find(" ld [0x"), std::string::npos);
    EXPECT_NE(os.str().find(" st [0x"), std::string::npos);
}

TEST(TraceWriter, MaxLinesCapsOutputNotCounting)
{
    std::ostringstream os;
    trace::TraceWriter writer(os, /*max_lines=*/10);
    const KernelResult r = run_with_observer(&writer);
    std::uint64_t lines = 0;
    for (const char ch : os.str())
        lines += ch == '\n';
    EXPECT_EQ(lines, 10u);
    EXPECT_EQ(writer.records(), r.stats.get("instructions"));
}

TEST(OpProfiler, CountsMatchKernelStats)
{
    trace::OpProfiler profiler;
    const KernelResult r = run_with_observer(&profiler);
    EXPECT_EQ(profiler.total(), r.stats.get("instructions"));
    EXPECT_EQ(profiler.count(Op::Ld), r.stats.get("loads"));
    EXPECT_EQ(profiler.count(Op::St), r.stats.get("stores"));
    EXPECT_GT(profiler.ldst_fraction(), 0.1);
    EXPECT_LT(profiler.ldst_fraction(), 0.6);
    // vecadd is fully coalesced and non-divergent.
    EXPECT_DOUBLE_EQ(profiler.avg_active_lanes(), 32.0);
    EXPECT_DOUBLE_EQ(profiler.avg_mem_span_lines(), 1.0);
}

TEST(OpProfiler, StreamclusterIsLoadStoreHeavy)
{
    // §8.5 motivates streamcluster's MEMCHECK pathology with its high
    // load/store share (paper: 31.22% on the real binary).
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    const BenchmarkDef *def = find_benchmark("streamcluster", "cuda");
    ASSERT_NE(def, nullptr);
    const WorkloadInstance w = def->make(driver);

    trace::OpProfiler profiler;
    Gpu gpu(small_config(), driver);
    gpu.set_lane_observer(&profiler);
    gpu.launch(driver.launch(w.make_config(true, false)));
    gpu.run();
    EXPECT_GT(profiler.ldst_fraction(), 0.2);
}

TEST(AddressProfiler, CountsPagesPerInstruction)
{
    trace::AddressProfiler profiler(kPageSize4K);
    run_with_observer(&profiler, 256, 8); // 2048 threads x 4B = 2 pages
    EXPECT_GE(profiler.pages_touched(), 6u); // 3 buffers x 2 pages
    // Every memory pc touched at least one page.
    EXPECT_GT(profiler.pages_for_pc(/*pc of first ld*/ 4) +
                  profiler.pages_for_pc(5) + profiler.pages_for_pc(6) +
                  profiler.pages_for_pc(7) + profiler.pages_for_pc(8),
              0u);
}

TEST(Observer, MemCheckFollowsItsOwnStep)
{
    // TraceWriter ends a global access's line in on_mem_check, so the
    // core must deliver each verdict right after the on_step of the
    // same instruction, and exactly once per load/store. Each verdict
    // carries the access's lanes and size.
    struct Event
    {
        bool step;
        CoreId core;
        WarpId warp;
        int pc;
        Op op;
        LaneMask mask = 0;
        unsigned size = 0;
    };
    struct Recorder final : LaneObserver
    {
        std::vector<Event> events;
        void
        on_step(CoreId core, KernelId, const WarpState &warp,
                const Instr &instr) override
        {
            events.push_back({true, core, warp.id, warp.pc, instr.op});
        }
        void
        on_mem_check(const MemCheckEvent &ev) override
        {
            events.push_back({false, ev.core, ev.warp, ev.op->pc,
                              ev.op->instr->op, ev.op->mask, ev.op->size});
        }
    } rec;
    const KernelResult r = run_with_observer(&rec, 128, 4);

    std::uint64_t steps = 0, checks = 0;
    for (std::size_t i = 0; i < rec.events.size(); ++i) {
        const Event &e = rec.events[i];
        if (e.step) {
            ++steps;
            const bool checked_next =
                i + 1 < rec.events.size() && !rec.events[i + 1].step;
            EXPECT_EQ(checked_next, is_global_mem(e.op)) << "event " << i;
            continue;
        }
        ++checks;
        ASSERT_GT(i, 0u);
        const Event &step = rec.events[i - 1];
        ASSERT_TRUE(step.step) << "event " << i << " follows a check";
        EXPECT_EQ(step.core, e.core) << "event " << i;
        EXPECT_EQ(step.warp, e.warp) << "event " << i;
        EXPECT_EQ(step.pc, e.pc) << "event " << i;
        EXPECT_EQ(step.op, e.op) << "event " << i;
        EXPECT_NE(e.mask, 0u) << "event " << i;
        EXPECT_EQ(e.size, 4u) << "event " << i; // vecadd: 32-bit words
    }
    EXPECT_EQ(steps, r.stats.get("instructions"));
    EXPECT_EQ(checks, r.stats.get("loads") + r.stats.get("stores"));
    EXPECT_GT(checks, 0u);
}

TEST(Observer, DetachStopsCallbacks)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "vec";
    p.inputs = 1;
    WorkloadInstance w;
    w.program = make_streaming(p);
    w.ntid = 32;
    w.nctaid = 1;
    for (int i = 0; i < 2; ++i)
        w.buffers.push_back(driver.create_buffer(32 * 4));

    trace::OpProfiler profiler;
    Gpu gpu(small_config(), driver);
    gpu.set_lane_observer(&profiler);
    gpu.set_lane_observer(nullptr); // detach before running
    gpu.launch(driver.launch(w.make_config(true, false)));
    gpu.run();
    EXPECT_EQ(profiler.total(), 0u);
}

} // namespace
} // namespace gpushield
