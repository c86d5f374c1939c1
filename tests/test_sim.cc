/**
 * @file
 * End-to-end simulator tests: functional correctness of kernels under
 * the timing model, divergence handling, barriers, multi-kernel
 * execution, bounds-check accounting, and the timing invariants the
 * paper's results rest on.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "driver/driver.h"
#include "sim/config.h"
#include "sim/gpu.h"
#include "workloads/kernels.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

using namespace workloads;

/** Small Nvidia-like config for fast tests. */
GpuConfig
test_config()
{
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 4;
    return cfg;
}

WorkloadInstance
vecadd_instance(Driver &driver, std::uint32_t ntid, std::uint32_t nctaid,
                bool guard = false)
{
    PatternParams p;
    p.name = "vecadd";
    p.inputs = 2;
    p.inner_iters = 1;
    p.tid_guard = guard;
    WorkloadInstance w;
    w.program = make_streaming(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    std::vector<std::int32_t> a(n), b(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::int32_t>(i);
        b[i] = static_cast<std::int32_t>(7 * i + 1);
    }
    for (int k = 0; k < 3; ++k)
        w.buffers.push_back(driver.create_buffer(n * 4));
    driver.upload(w.buffers[0], a.data(), n * 4);
    driver.upload(w.buffers[1], b.data(), n * 4);
    if (guard) {
        w.scalars.assign(w.program.args.size(), 0);
        w.scalar_static.assign(w.program.args.size(), false);
        w.scalars.back() = static_cast<std::int64_t>(n - 100);
    }
    return w;
}

TEST(SimEndToEnd, VecAddFunctionalWithAndWithoutShield)
{
    for (const bool shield : {false, true}) {
        GpuDevice dev(kPageSize2M);
        Driver driver(dev);
        WorkloadInstance w = vecadd_instance(driver, 256, 8);
        const std::uint64_t n = 256 * 8;
        const RunOutcome run =
            run_workload(test_config(), driver, w, shield, false);
        EXPECT_FALSE(run.result.aborted);
        EXPECT_TRUE(run.result.violations.empty());

        std::vector<std::int32_t> out(n);
        driver.download(w.buffers[2], out.data(), n * 4);
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], static_cast<std::int32_t>(8 * i + 1))
                << "i=" << i << " shield=" << shield;
    }
}

TEST(SimEndToEnd, GuardedKernelDivergenceCorrect)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 256, 4, /*guard=*/true);
    const std::uint64_t n = 256 * 4;
    const std::int64_t bound = w.scalars.back();

    const RunOutcome run =
        run_workload(test_config(), driver, w, true, false);
    EXPECT_TRUE(run.result.violations.empty());

    std::vector<std::int32_t> out(n);
    driver.download(w.buffers[2], out.data(), n * 4);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (static_cast<std::int64_t>(i) < bound)
            ASSERT_EQ(out[i], static_cast<std::int32_t>(8 * i + 1));
        else
            ASSERT_EQ(out[i], 0) << "guarded-out thread wrote anyway";
    }
}

TEST(SimEndToEnd, LoopKernelComputesPrefixCounts)
{
    // for (i = 0; i < gid % 5; ++i) ++acc; out[gid] = acc
    KernelBuilder b("loops");
    const int out_arg = b.arg_ptr("out");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int count = b.alui(Op::Rem, gid, 5);
    const int acc = b.mov_imm(0);
    b.loop_count(count, [&](int) {
        const int inc = b.alui(Op::Add, acc, 1);
        b.mov(acc, inc);
    });
    const int base = b.ldarg(out_arg);
    const int addr = b.gep(base, gid, 4);
    b.st(addr, acc, 4);
    b.exit();

    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 64;
    w.nctaid = 2;
    const std::uint64_t n = 128;
    w.buffers.push_back(driver.create_buffer(n * 4));

    run_workload(test_config(), driver, w, true, false);
    std::vector<std::int32_t> out(n);
    driver.download(w.buffers[0], out.data(), n * 4);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], static_cast<std::int32_t>(i % 5))
            << "divergent loop trip count wrong at " << i;
}

TEST(SimEndToEnd, NestedIfInsideLoop)
{
    // out[gid] = number of even i in [0, gid%7)
    KernelBuilder b("nested");
    const int out_arg = b.arg_ptr("out");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int count = b.alui(Op::Rem, gid, 7);
    const int acc = b.mov_imm(0);
    b.loop_count(count, [&](int i) {
        const int bit = b.alui(Op::And, i, 1);
        const int is_even = b.setpi(Cmp::Eq, bit, 0);
        b.if_then(is_even, false, [&] {
            const int inc = b.alui(Op::Add, acc, 1);
            b.mov(acc, inc);
        });
    });
    const int base = b.ldarg(out_arg);
    b.st(b.gep(base, gid, 4), acc, 4);
    b.exit();

    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 64;
    w.nctaid = 1;
    w.buffers.push_back(driver.create_buffer(64 * 4));

    run_workload(test_config(), driver, w, true, false);
    std::vector<std::int32_t> out(64);
    driver.download(w.buffers[0], out.data(), 64 * 4);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(out[i], (i % 7 + 1) / 2) << "i=" << i;
}

TEST(SimEndToEnd, BarrierSynchronizedSharedExchange)
{
    // Each thread writes tid to shared, barriers, reads neighbour
    // (tid+1)%ntid: exercises cross-warp barrier ordering.
    KernelBuilder b("barrier");
    const int out_arg = b.arg_ptr("out");
    b.shared_mem(256 * 4);
    const int tid = b.sreg(SpecialReg::TidX);
    const int ntid = b.sreg(SpecialReg::NTidX);
    const int saddr = b.alui(Op::Mul, tid, 4);
    b.sts(saddr, tid, 4);
    b.bar();
    const int next = b.alui(Op::Add, tid, 1);
    const int wrapped = b.alu(Op::Rem, next, ntid);
    const int naddr = b.alui(Op::Mul, wrapped, 4);
    const int v = b.lds(naddr, 4);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int base = b.ldarg(out_arg);
    b.st(b.gep(base, gid, 4), v, 4);
    b.exit();

    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 256;
    w.nctaid = 2;
    w.buffers.push_back(driver.create_buffer(512 * 4));

    run_workload(test_config(), driver, w, true, false);
    std::vector<std::int32_t> out(512);
    driver.download(w.buffers[0], out.data(), 512 * 4);
    for (int wg = 0; wg < 2; ++wg)
        for (int t = 0; t < 256; ++t)
            ASSERT_EQ(out[wg * 256 + t], (t + 1) % 256);
}

TEST(SimEndToEnd, ChecksCountedWhenShieldOn)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 256, 4);
    const RunOutcome on =
        run_workload(test_config(), driver, w, true, false);
    EXPECT_GT(on.result.stats.get("checks"), 0u);
    EXPECT_EQ(on.result.stats.get("checks_elided"), 0u);

    GpuDevice dev2(kPageSize2M);
    Driver driver2(dev2);
    WorkloadInstance w2 = vecadd_instance(driver2, 256, 4);
    const RunOutcome off =
        run_workload(test_config(), driver2, w2, false, false);
    EXPECT_EQ(off.result.stats.get("checks"), 0u);
}

TEST(SimEndToEnd, StaticAnalysisElidesAllStreamingChecks)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 256, 4);
    const RunOutcome run =
        run_workload(test_config(), driver, w, true, true);
    EXPECT_EQ(run.result.stats.get("checks"), 0u);
    EXPECT_GT(run.result.stats.get("checks_elided"), 0u);
}

TEST(SimEndToEnd, RCacheHitRateHighForStreaming)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 256, 16);
    const RunOutcome run =
        run_workload(test_config(), driver, w, true, false);
    // Three buffers; checks are per warp-instruction (warp-level
    // bounds checking): 3 memory ops x 128 warps = 384 lookups, almost
    // all hitting the 4-entry L1 RCache.
    EXPECT_GT(run.l1_rcache_hit_rate, 0.90);
    EXPECT_EQ(run.rcache.get("lookups"), 384u);
}

TEST(SimEndToEnd, RbtRefillsBoundedByBuffersAndCores)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 256, 16);
    const GpuConfig cfg = test_config();
    const RunOutcome run = run_workload(cfg, driver, w, true, false);
    const std::uint64_t refills = run.result.stats.get("rbt_refills");
    EXPECT_GT(refills, 0u);
    EXPECT_LE(refills, 3u * cfg.num_cores); // 3 buffers per core, cold
}

TEST(SimEndToEnd, ShieldOverheadIsSmall)
{
    // Long enough that the handful of cold RBT refills amortizes, as in
    // the paper's full-size benchmark runs.
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 256, 96);
    const Cycle base =
        run_workload(test_config(), driver, w, false, false).result.cycles();

    GpuDevice dev2(kPageSize2M);
    Driver driver2(dev2);
    WorkloadInstance w2 = vecadd_instance(driver2, 256, 96);
    const Cycle shielded =
        run_workload(test_config(), driver2, w2, true, false)
            .result.cycles();

    // The headline claim: negligible overhead with the default RCache.
    EXPECT_LT(static_cast<double>(shielded),
              static_cast<double>(base) * 1.03);
}

TEST(SimEndToEnd, MultiKernelInterAndIntraCore)
{
    const GpuConfig cfg = test_config();
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w1 = vecadd_instance(driver, 256, 6);
    WorkloadInstance w2 = vecadd_instance(driver, 256, 6);

    // Inter-core: disjoint halves.
    Gpu inter(cfg, driver);
    const auto i1 = inter.launch(
        driver.launch(w1.make_config(true, false)), 0x3); // cores 0-1
    const auto i2 = inter.launch(
        driver.launch(w2.make_config(true, false)), 0xC); // cores 2-3
    inter.run();
    EXPECT_FALSE(inter.result(i1).aborted);
    EXPECT_FALSE(inter.result(i2).aborted);
    EXPECT_TRUE(inter.result(i1).violations.empty());
    EXPECT_TRUE(inter.result(i2).violations.empty());

    // Intra-core: both kernels on every core.
    Gpu intra(cfg, driver);
    const auto j1 =
        intra.launch(driver.launch(w1.make_config(true, false)));
    const auto j2 =
        intra.launch(driver.launch(w2.make_config(true, false)));
    intra.run();
    EXPECT_TRUE(intra.result(j1).violations.empty());
    EXPECT_TRUE(intra.result(j2).violations.empty());

    // Functional output still correct in intra-core mode.
    const std::uint64_t n = 256 * 6;
    std::vector<std::int32_t> out(n);
    driver.download(w1.buffers[2], out.data(), n * 4);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], static_cast<std::int32_t>(8 * i + 1));
}

TEST(SimEndToEnd, OverflowDetectedAndSuppressed)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "oob";
    WorkloadInstance w;
    w.program = make_overflowing(p, 64);
    w.ntid = 256;
    w.nctaid = 2;
    const std::uint64_t n = 512;
    w.buffers.push_back(driver.create_buffer(n * 4));
    w.buffers.push_back(driver.create_buffer(n * 4));

    const RunOutcome run =
        run_workload(test_config(), driver, w, true, false);
    EXPECT_FALSE(run.result.violations.empty());
    for (const Violation &v : run.result.violations)
        EXPECT_EQ(v.kind, ViolationKind::OutOfBounds);
    EXPECT_FALSE(run.result.aborted);
}

TEST(SimEndToEnd, HeapKernelRunsAndChecks)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "heapk";
    WorkloadInstance w;
    w.program = make_heap(p);
    w.ntid = 64;
    w.nctaid = 2;
    w.buffers.push_back(driver.create_buffer(128 * 4));
    w.scalars.assign(w.program.args.size(), 0);
    w.scalar_static.assign(w.program.args.size(), false);
    w.scalars.back() = 32; // 32B per-thread allocation
    w.heap_bytes = 1 << 20;

    const RunOutcome run =
        run_workload(test_config(), driver, w, true, false);
    EXPECT_FALSE(run.result.aborted);
    EXPECT_TRUE(run.result.violations.empty());
    EXPECT_EQ(run.result.stats.get("mallocs"), 128u);

    // Each thread read back its own gid through the heap pointer.
    std::vector<std::int32_t> out(128);
    driver.download(w.buffers[0], out.data(), 128 * 4);
    for (int i = 0; i < 128; ++i)
        ASSERT_EQ(out[i], i);
}

TEST(SimEndToEnd, MallocSerializationCostsCycles)
{
    const GpuConfig cfg = test_config();
    auto run_with = [&](std::uint32_t threads) {
        GpuDevice dev(kPageSize2M);
        Driver driver(dev);
        PatternParams p;
        p.name = "heapk";
        WorkloadInstance w;
        w.program = make_heap(p);
        w.ntid = threads;
        w.nctaid = 1;
        w.buffers.push_back(driver.create_buffer(threads * 4));
        w.scalars.assign(w.program.args.size(), 0);
        w.scalar_static.assign(w.program.args.size(), false);
        w.scalars.back() = 16;
        w.heap_bytes = 1 << 20;
        return run_workload(cfg, driver, w, true, false).result.cycles();
    };
    // Device malloc serializes: 4x the threads should cost much more
    // than 4x-parallel work would (footnote 2's contention).
    const Cycle small = run_with(32);
    const Cycle big = run_with(128);
    EXPECT_GT(big, small * 3);
}

} // namespace
} // namespace gpushield

namespace gpushield {
namespace {

TEST(SimEndToEnd, ViolationLogCarriesContext)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "oob_ctx";
    WorkloadInstance w;
    w.program = make_overflowing(p, 1 << 20); // far OOB, every warp
    w.ntid = 64;
    w.nctaid = 1;
    w.buffers.push_back(driver.create_buffer(64 * 4));
    w.buffers.push_back(driver.create_buffer(64 * 4));

    const RunOutcome run =
        run_workload(test_config(), driver, w, true, false);
    ASSERT_FALSE(run.result.violations.empty());
    const Violation &v = run.result.violations.front();
    EXPECT_TRUE(v.is_store);
    EXPECT_EQ(v.kind, ViolationKind::OutOfBounds);
    EXPECT_GE(v.pc, 0);
    EXPECT_LT(static_cast<std::size_t>(v.pc), w.program.code.size());
    EXPECT_EQ(w.program.code[v.pc].op, Op::St);
    // The logged range really is outside the output buffer.
    const VaRegion &out = driver.region(w.buffers[1]);
    EXPECT_GE(v.min_addr, out.base + out.size);
}

TEST(SimEndToEnd, CycleBudgetExhaustionIsFatal)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    // An effectively-infinite loop (2^40 iterations).
    KernelBuilder b("spin");
    const int out = b.arg_ptr("out");
    const int big = b.mov_imm(std::int64_t{1} << 40);
    b.loop_count(big, [&](int) {});
    const int base = b.ldarg(out);
    b.st(b.gep(base, b.mov_imm(0), 4), big, 4);
    b.exit();

    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 32;
    w.nctaid = 1;
    w.buffers.push_back(driver.create_buffer(64));

    GpuConfig cfg = test_config();
    cfg.max_cycles = 20'000; // tiny budget
    // Recoverable: sweep harnesses catch this and record a structured
    // per-cell failure instead of losing the whole process.
    EXPECT_THROW(run_workload(cfg, driver, w, false, false),
                 SimulationError);
}

TEST(SimEndToEnd, WorkgroupWiderThanSchedulerMaskIsAnError)
{
    // Each workgroup slot tracks its ready warps in a 32-bit mask. A
    // config that lets a 33-warp workgroup dispatch gets a recoverable
    // error, not a silently truncated schedule.
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 33 * 32, 1);
    GpuConfig cfg = test_config();
    cfg.max_warps_per_core = 64;
    EXPECT_THROW(run_workload(cfg, driver, w, false, false),
                 SimulationError);
    // 32 warps still fit.
    WorkloadInstance fits = vecadd_instance(driver, 32 * 32, 1);
    EXPECT_FALSE(run_workload(cfg, driver, fits, false, false)
                     .result.aborted);
}

TEST(SimEndToEnd, ResultOfBadLaunchIndexThrows)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    const WorkloadInstance w = vecadd_instance(driver, 64, 2);
    Gpu gpu(test_config(), driver);
    const std::size_t idx =
        gpu.launch(driver.launch(w.make_config(true, false)));
    gpu.run();
    EXPECT_NO_THROW(gpu.result(idx));
    EXPECT_THROW(gpu.result(idx + 1), std::out_of_range);
}

TEST(SimEndToEnd, LaunchStateOfBadLaunchIndexThrows)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    Gpu gpu(test_config(), driver);
    EXPECT_THROW(gpu.launch_state(0), std::out_of_range);
    const WorkloadInstance w = vecadd_instance(driver, 64, 2);
    const std::size_t idx =
        gpu.launch(driver.launch(w.make_config(true, false)));
    EXPECT_NO_THROW(gpu.launch_state(idx));
    EXPECT_THROW(gpu.launch_state(idx + 1), std::out_of_range);
}

TEST(SimEndToEnd, MultiLaunchAccumulatesAndRecycles)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 128, 4);
    const MultiLaunchOutcome out =
        run_workload_n(test_config(), driver, w, 5, true, false);
    EXPECT_EQ(out.violations, 0u);
    EXPECT_GT(out.total_cycles, 0u);
    // Five launches each refill the flushed RCaches.
    EXPECT_GE(out.rcache.get("refills"), 5u);
}

TEST(SimEndToEnd, DeterministicAcrossRuns)
{
    auto run_once = [] {
        GpuDevice dev(kPageSize2M);
        Driver driver(dev);
        WorkloadInstance w = vecadd_instance(driver, 256, 8);
        return run_workload(test_config(), driver, w, true, false)
            .result.cycles();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(SimEndToEnd, PartialWarpGridRuns)
{
    // 40 threads: one full warp + one 8-lane warp per workgroup.
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w = vecadd_instance(driver, 40, 3);
    const std::uint64_t n = 120;
    const RunOutcome run =
        run_workload(test_config(), driver, w, true, false);
    EXPECT_TRUE(run.result.violations.empty());
    std::vector<std::int32_t> out(n);
    driver.download(w.buffers[2], out.data(), n * 4);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], static_cast<std::int32_t>(8 * i + 1));
}

} // namespace
} // namespace gpushield
