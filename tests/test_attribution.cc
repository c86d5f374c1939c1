/**
 * @file
 * Stall attribution on the event-driven engine.
 *
 * Gpu::run() jumps the clock over idle stretches and credits an
 * attached profiler each stretch in bulk; stepping the engine with
 * Gpu::step() until it is done visits every cycle instead. Both must
 * give the same Chrome trace and the same summary, at sampling
 * intervals 1 and 64, on:
 *
 *   - every smoke cell, launched the way the sweep executor launches
 *     it (the pair cells and the x3 cell included)
 *   - DRAM back-pressure (a one-deep DRAM queue)
 *   - exposed bounds-check bubbles, alone and behind software-tool
 *     instrumentation that holds the issue stage longer
 *   - device mallocs
 *   - a barrier
 *   - a kernel abort
 *   - two launches on two GPUs sharing one profiler
 *
 * And attaching a profiler changes none of the cycles run() jumps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/executor.h"
#include "harness/suites.h"
#include "harness/sweep.h"
#include "isa/builder.h"
#include "obs/profiler.h"
#include "sim/gpu.h"
#include "workloads/kernels.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

using obs::StallCause;
using workloads::WorkloadInstance;

/** Simulates every kernel launched on a Gpu to completion. */
using Finish = void (*)(Gpu &);

void
by_run(Gpu &gpu)
{
    gpu.run();
}

void
by_steps(Gpu &gpu)
{
    while (!gpu.done())
        gpu.step();
    // Nothing is left to simulate: run() only hands the profiler the
    // DRAM retries of the last step, as it does after its own loop.
    gpu.run();
}

/** A profiled scenario: simulates its launches with @p finish, on GPUs
 *  that it attaches @p prof to, and returns the cycles they jumped. */
using Scenario = std::function<std::uint64_t(obs::Profiler &prof,
                                             Finish finish)>;

/** What one profiled scenario leaves behind. */
struct Profiled
{
    std::string trace;
    StatSet summary;
    std::uint64_t skipped = 0;
};

Profiled
profile(const Scenario &scenario, Cycle interval, Finish finish)
{
    obs::Profiler prof(interval);
    Profiled out;
    out.skipped = scenario(prof, finish);
    std::ostringstream os;
    prof.write_chrome_trace(os);
    out.trace = os.str();
    out.summary = prof.summary().to_statset();
    return out;
}

/** Profiles @p scenario with run() and by stepping, at intervals 1 and
 *  64; both must agree. Returns the run() profile at interval 64. */
Profiled
expect_same_attribution(const Scenario &scenario)
{
    Profiled jumped;
    for (const Cycle interval : {Cycle{1}, Cycle{64}}) {
        SCOPED_TRACE("sample interval " + std::to_string(interval));
        jumped = profile(scenario, interval, &by_run);
        const Profiled stepped = profile(scenario, interval, &by_steps);
        EXPECT_GT(jumped.skipped, 0u) << "run() jumped no cycle";
        EXPECT_EQ(stepped.skipped, 0u);
        EXPECT_TRUE(jumped.summary == stepped.summary);
        // Not EXPECT_EQ: gtest would diff two long traces line by line.
        const auto at = static_cast<std::size_t>(
            std::mismatch(jumped.trace.begin(), jumped.trace.end(),
                          stepped.trace.begin(), stepped.trace.end())
                .first -
            jumped.trace.begin());
        EXPECT_TRUE(jumped.trace == stepped.trace)
            << "traces differ from byte " << at << ": run() wrote \""
            << jumped.trace.substr(at, 60) << "\", step() wrote \""
            << stepped.trace.substr(at, 60) << "\"";
    }
    return jumped;
}

std::uint64_t
stall(const Profiled &p, StallCause cause)
{
    return p.summary.get(std::string("stall.") + obs::to_string(cause));
}

/** Runs the instance @p make builds alone on a fresh GPU built from
 *  @p cfg; @p instr_cycles_per_mem models a software tool's
 *  instrumentation (Gpu::launch). */
Scenario
single(const GpuConfig &cfg, WorkloadInstance (*make)(Driver &),
       bool shield, Cycle instr_cycles_per_mem = 0)
{
    return [=](obs::Profiler &prof, Finish finish) {
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev);
        const WorkloadInstance w = make(driver);
        Gpu gpu(cfg, driver);
        gpu.set_profiler(&prof);
        const std::size_t idx =
            gpu.launch(driver.launch(w.make_config(shield, false)),
                       ~std::uint64_t{0}, instr_cycles_per_mem);
        finish(gpu);
        driver.finish(gpu.launch_state(idx));
        return gpu.cycles_skipped();
    };
}

/** Smoke cell @p cell, launched the way the sweep executor launches
 *  it. */
Scenario
smoke_cell(const harness::SweepSpec &spec, const harness::CellSpec &cell)
{
    return [&spec, &cell](obs::Profiler &prof, Finish finish) {
        const GpuConfig &cfg = spec.config(cell.config);
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev, {}, harness::cell_seed(spec, cell));
        driver.set_shield_backend(cfg.shield.backend);
        Gpu gpu(cfg, driver);
        gpu.set_profiler(&prof);
        const auto config = [&](const WorkloadInstance &w) {
            return w.make_config(cell.shield, cell.use_static);
        };
        const WorkloadInstance a =
            workloads::find_benchmark(cell.workload, cell.set)
                ->make(driver);
        if (!cell.workload_b.empty()) {
            const WorkloadInstance b =
                workloads::find_benchmark(cell.workload_b, cell.set)
                    ->make(driver);
            const std::uint64_t all =
                (std::uint64_t{1} << cfg.num_cores) - 1;
            const std::uint64_t lower =
                (std::uint64_t{1} << (cfg.num_cores / 2)) - 1;
            const bool split = cell.placement == harness::Placement::kSplit;
            gpu.launch(driver.launch(config(a)), split ? lower : all);
            gpu.launch(driver.launch(config(b)), split ? all & ~lower : all);
            finish(gpu);
            return gpu.cycles_skipped();
        }
        for (unsigned n = 0; n < cell.launches; ++n) {
            const std::size_t idx = gpu.launch(driver.launch(config(a)));
            finish(gpu);
            driver.finish(gpu.launch_state(idx));
        }
        return gpu.cycles_skipped();
    };
}

WorkloadInstance
vectoradd_instance(Driver &driver)
{
    return workloads::find_benchmark("vectoradd", "cuda")->make(driver);
}

/** Poorly coalesced stores: on a one-deep DRAM queue, requests are
 *  still being retried when the kernel ends. */
WorkloadInstance
scatter_instance(Driver &driver)
{
    workloads::PatternParams p;
    p.name = "scatter";
    p.stride = 8;
    WorkloadInstance w;
    w.program = workloads::make_strided(p);
    w.ntid = 256;
    w.nctaid = 4;
    const std::uint64_t n = std::uint64_t{w.ntid} * w.nctaid;
    w.buffers.push_back(driver.create_buffer(n * 4));
    w.buffers.push_back(driver.create_buffer(n * 4));
    w.scalars = {0, 0, static_cast<std::int64_t>(n)};
    w.scalar_static = {true, true, true};
    return w;
}

/** Each thread loads its element eight times: after the first load
 *  the D-cache hits, so nothing hides a slow bounds check. */
WorkloadInstance
reload_instance(Driver &driver)
{
    KernelBuilder b("reload");
    const int a = b.arg_ptr("A");
    const int addr = b.gep(b.ldarg(a), b.sreg(SpecialReg::TidX), 4);
    const int acc = b.mov_imm(0);
    b.loop_n(8, [&](int) {
        b.mov(acc, b.alu(Op::Add, acc, b.ld(addr, 4)));
    });
    b.st(addr, acc, 4);
    b.exit();
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 128;
    w.nctaid = 4;
    w.buffers.push_back(driver.create_buffer(128 * 4));
    return w;
}

/** Every thread device-mallocs 32 B, writes its gid through the heap
 *  pointer, and reads it back. */
WorkloadInstance
heap_instance(Driver &driver)
{
    workloads::PatternParams p;
    p.name = "heap";
    WorkloadInstance w;
    w.program = workloads::make_heap(p);
    w.ntid = 64;
    w.nctaid = 2;
    w.buffers.push_back(driver.create_buffer(128 * 4));
    w.scalars.assign(w.program.args.size(), 0);
    w.scalar_static.assign(w.program.args.size(), false);
    w.scalars.back() = 32;
    w.heap_bytes = 1 << 20;
    return w;
}

/** Three warps per workgroup load, diverge, meet at a barrier and
 *  exchange values through shared memory. */
WorkloadInstance
barrier_instance(Driver &driver)
{
    KernelBuilder b("barrier");
    const int in = b.arg_ptr("in");
    const int out = b.arg_ptr("out");
    b.shared_mem(96 * 4);
    const int tid = b.sreg(SpecialReg::TidX);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int v = b.ld(b.gep(b.ldarg(in), gid, 4), 4);
    const int odd = b.setpi(Cmp::Ne, b.alui(Op::And, tid, 1), 0);
    b.if_then(odd, false, [&] {
        b.loop_n(3, [&](int i) { b.mov(v, b.alu(Op::Add, v, i)); });
    });
    b.sts(b.alui(Op::Mul, tid, 4), v, 4);
    b.bar();
    const int peer = b.alui(Op::Rem, b.alui(Op::Add, tid, 33), 96);
    const int got = b.lds(b.alui(Op::Mul, peer, 4), 4);
    b.st(b.gep(b.ldarg(out), gid, 4), got, 4);
    b.exit();
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 96;
    w.nctaid = 6;
    w.buffers.push_back(driver.create_buffer(96 * 6 * 4));
    w.buffers.push_back(driver.create_buffer(96 * 6 * 4));
    return w;
}

/** Out-of-bounds stores that a precise-exception GPU aborts on; the
 *  other workgroups stay resident until the abort is detached. */
WorkloadInstance
overflow_instance(Driver &driver)
{
    workloads::PatternParams p;
    p.name = "oob";
    WorkloadInstance w;
    w.program = workloads::make_overflowing(p, 64);
    w.ntid = 128;
    w.nctaid = 2;
    w.buffers.push_back(driver.create_buffer(256 * 4));
    w.buffers.push_back(driver.create_buffer(256 * 4));
    return w;
}

GpuConfig
two_cores()
{
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 2;
    return cfg;
}

TEST(Attribution, SmokeCellsMatchSteppedEngine)
{
    const harness::SweepSpec spec = harness::smoke_suite();
    for (const harness::CellSpec &cell : spec.cells) {
        SCOPED_TRACE(harness::cell_key(spec, cell));
        const Profiled p = expect_same_attribution(smoke_cell(spec, cell));
        EXPECT_GT(stall(p, StallCause::Issued), 0u);
    }
}

TEST(Attribution, DramBackpressureMatchesSteppedEngine)
{
    GpuConfig cfg = nvidia_config();
    cfg.mem.dram.queue_capacity = 1;
    const Profiled p =
        expect_same_attribution(single(cfg, &scatter_instance, true));
    EXPECT_GT(stall(p, StallCause::DramBackpressure), 0u);
}

TEST(Attribution, ExposedBcuStallsMatchSteppedEngine)
{
    // RCache lookups far slower than the LSU pipeline shadow: every
    // check of a D-cache hit exposes a bubble.
    GpuConfig cfg = two_cores();
    cfg.shield.region.l1_latency = 12;
    cfg.shield.region.l2_latency = 30;
    const Profiled p =
        expect_same_attribution(single(cfg, &reload_instance, true));
    EXPECT_GT(stall(p, StallCause::BcuStall), 0u);
}

TEST(Attribution, InstrumentedIssueStallsMatchSteppedEngine)
{
    // Instrumentation holds the issue stage past each BCU bubble: a
    // Ready warp counts bcu_stall only while both lie ahead, then
    // lsu_busy.
    GpuConfig cfg = two_cores();
    cfg.shield.region.l1_latency = 12;
    cfg.shield.region.l2_latency = 30;
    const Profiled p =
        expect_same_attribution(single(cfg, &reload_instance, true, 40));
    EXPECT_GT(stall(p, StallCause::BcuStall), 0u);
    EXPECT_GT(stall(p, StallCause::LsuBusy), 0u);
}

TEST(Attribution, DeviceMallocMatchesSteppedEngine)
{
    const Profiled p =
        expect_same_attribution(single(two_cores(), &heap_instance, true));
    EXPECT_GT(stall(p, StallCause::Scoreboard), 0u);
}

TEST(Attribution, BarrierMatchesSteppedEngine)
{
    const Profiled p = expect_same_attribution(
        single(two_cores(), &barrier_instance, true));
    EXPECT_GT(stall(p, StallCause::Barrier), 0u);
}

TEST(Attribution, AbortMatchesSteppedEngine)
{
    GpuConfig cfg = two_cores();
    cfg.precise_exceptions = true;
    const Profiled p =
        expect_same_attribution(single(cfg, &overflow_instance, true));
    EXPECT_NE(p.trace.find("\"aborted\":true"), std::string::npos);
}

TEST(Attribution, TwoGpusOnOneProfilerMatchSteppedEngine)
{
    // Two launches, each on its own GPU, strung onto one timeline the
    // way api::Context strings its launches.
    GpuConfig cfg = two_cores();
    cfg.mem.dram.queue_capacity = 1;
    const Scenario two = [&cfg](obs::Profiler &prof, Finish finish) {
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev);
        std::uint64_t skipped = 0;
        Cycle base = 0;
        for (WorkloadInstance (*make)(Driver &) :
             {&scatter_instance, &vectoradd_instance}) {
            const WorkloadInstance w = make(driver);
            Gpu gpu(cfg, driver);
            prof.set_time_base(base);
            gpu.set_profiler(&prof);
            const std::size_t idx =
                gpu.launch(driver.launch(w.make_config(true, false)));
            finish(gpu);
            driver.finish(gpu.launch_state(idx));
            base += gpu.now();
            skipped += gpu.cycles_skipped();
        }
        return skipped;
    };
    const Profiled p = expect_same_attribution(two);
    EXPECT_GT(stall(p, StallCause::DramBackpressure), 0u);
}

TEST(Attribution, ProfilerLeavesClockJumpsAlone)
{
    const harness::SweepSpec spec = harness::smoke_suite();
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        SCOPED_TRACE(harness::cell_key(spec, spec.cells[i]));
        const harness::RunRecord plain = harness::run_cell(spec, i, false);
        const harness::RunRecord profiled = harness::run_cell(spec, i, true);
        ASSERT_TRUE(plain.ok && profiled.ok);
        EXPECT_GT(plain.cycles_skipped, 0u);
        EXPECT_EQ(profiled.cycles_skipped, plain.cycles_skipped);
    }
}

} // namespace
} // namespace gpushield
