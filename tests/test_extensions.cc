/**
 * @file
 * Tests for the paper's discussion-section extensions (§5.5.2, §6.2,
 * §6.3): precise-exception faulting, RCache bank partitioning for
 * intra-core multi-kernel runs, buffer-ID recycling across launches,
 * the low-ID merged-bounds fallback, and end-to-end read-only buffer
 * enforcement.
 */

#include <gtest/gtest.h>

#include <vector>

#include "compiler/static_analysis.h"
#include "driver/driver.h"
#include "isa/builder.h"
#include "shield/pointer.h"
#include "shield/rcache.h"
#include "sim/config.h"
#include "sim/gpu.h"
#include "workloads/kernels.h"
#include "workloads/runner.h"

namespace gpushield {
namespace {

using namespace workloads;

GpuConfig
small_config()
{
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 4;
    return cfg;
}

// --- §5.5.2: precise exceptions ----------------------------------------

TEST(PreciseExceptions, ViolationAbortsKernel)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "oob";
    WorkloadInstance w;
    w.program = make_overflowing(p, 64);
    w.ntid = 128;
    w.nctaid = 2;
    w.buffers.push_back(driver.create_buffer(256 * 4));
    w.buffers.push_back(driver.create_buffer(256 * 4));

    GpuConfig cfg = small_config();
    cfg.precise_exceptions = true;
    const RunOutcome run = run_workload(cfg, driver, w, true, false);
    EXPECT_TRUE(run.result.aborted);
    EXPECT_FALSE(run.result.violations.empty());
}

TEST(PreciseExceptions, DefaultModeLogsAndContinues)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "oob";
    WorkloadInstance w;
    w.program = make_overflowing(p, 64);
    w.ntid = 128;
    w.nctaid = 2;
    w.buffers.push_back(driver.create_buffer(256 * 4));
    w.buffers.push_back(driver.create_buffer(256 * 4));

    const RunOutcome run =
        run_workload(small_config(), driver, w, true, false);
    EXPECT_FALSE(run.result.aborted);
    EXPECT_FALSE(run.result.violations.empty());
}

// --- §6.2: RCache bank partitioning -------------------------------------

TEST(RCachePartitioning, BanksIsolateKernels)
{
    RCacheConfig cfg;
    cfg.l1_entries = 2;
    cfg.l2_entries = 4;
    cfg.partitions = 2;
    RCache rc(cfg);

    Bounds b;
    b.valid = true;
    b.size = 64;

    // Kernel 1 (bank 1) fills its L1; kernel 2 (bank 0) thrashing its
    // own bank must not evict kernel 1's entries.
    b.kernel = 1;
    rc.fill(1, 10, b);
    rc.fill(1, 11, b);
    b.kernel = 2;
    for (BufferId id = 20; id < 30; ++id)
        rc.fill(2, id, b);

    EXPECT_EQ(rc.lookup(1, 10).level, RCacheLevel::L1);
    EXPECT_EQ(rc.lookup(1, 11).level, RCacheLevel::L1);
}

TEST(RCachePartitioning, SharedBankThrashesWithoutPartitioning)
{
    RCacheConfig cfg;
    cfg.l1_entries = 2;
    cfg.l2_entries = 4;
    cfg.partitions = 1;
    RCache rc(cfg);

    Bounds b;
    b.valid = true;
    b.size = 64;
    b.kernel = 1;
    rc.fill(1, 10, b);
    rc.fill(1, 11, b);
    b.kernel = 2;
    for (BufferId id = 20; id < 30; ++id)
        rc.fill(2, id, b);

    // Kernel 1's metadata was evicted by kernel 2's stream.
    EXPECT_EQ(rc.lookup(1, 10).level, RCacheLevel::Miss);
}

TEST(RCachePartitioning, IntraCorePairKeepsHitRate)
{
    // End to end: two kernels share every core; the partitioned RCache
    // should match or beat the shared one on L1 hit rate.
    auto run_pair = [](unsigned partitions) {
        GpuConfig cfg = intel_config();
        cfg.num_cores = 4;
        cfg.shield.region.l1_entries = 2; // small enough to contend
        cfg.shield.region.partitions = partitions;

        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev);
        PatternParams p;
        p.name = "k";
        p.inputs = 3;
        auto make_inst = [&](const char *name) {
            PatternParams q = p;
            q.name = name;
            WorkloadInstance w;
            w.program = make_streaming(q);
            w.ntid = 128;
            w.nctaid = 24;
            const std::uint64_t n = 128 * 24;
            for (int i = 0; i < 4; ++i)
                w.buffers.push_back(
                    driver.create_buffer(n * 4 + (i + 1) * 640));
            return w;
        };
        const WorkloadInstance a = make_inst("a");
        const WorkloadInstance bwl = make_inst("b");
        Gpu gpu(cfg, driver);
        gpu.launch(driver.launch(a.make_config(true, false)));
        gpu.launch(driver.launch(bwl.make_config(true, false)));
        gpu.run();
        return gpu.rcache_l1_hit_rate();
    };

    const double shared = run_pair(1);
    const double partitioned = run_pair(2);
    EXPECT_GE(partitioned + 1e-9, shared);
}

// --- §6.3: ID recycling and merged-bounds fallback -----------------------

TEST(IdManagement, IdsRecycleAcrossLaunches)
{
    GpuDevice dev(kPageSize2M);
    // Tiny ID space: 7 usable IDs; each launch needs 3.
    Driver driver(dev, DriverPartition{.id_count = 7}, 1234);
    PatternParams p;
    p.name = "vec";
    p.inputs = 2;
    const KernelProgram prog = make_streaming(p);

    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 32;
    cfg.nctaid = 1;
    for (int i = 0; i < 3; ++i)
        cfg.buffers.push_back(driver.create_buffer(32 * 4));

    // Without recycling this would exhaust after two launches.
    for (int round = 0; round < 16; ++round) {
        LaunchState state = driver.launch(cfg);
        EXPECT_FALSE(state.ids_merged) << "round " << round;
        driver.finish(state);
    }
}

TEST(IdManagement, LowIdSpaceMergesAdjacentBuffers)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev, DriverPartition{.id_count = 3}, 99); // 3 usable IDs
    PatternParams p;
    p.name = "multi";
    p.inputs = 5; // needs 6 buffer IDs unmerged
    const KernelProgram prog = make_multibuffer(p);

    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 32;
    cfg.nctaid = 1;
    for (int i = 0; i < 6; ++i)
        cfg.buffers.push_back(driver.create_buffer(32 * 4));

    LaunchState state = driver.launch(cfg);
    EXPECT_TRUE(state.ids_merged);

    // Adjacent buffers share an ID, and the merged RBT entry covers
    // both regions.
    const BufferId id0 = state.id_map.at(BaseRef{BaseKind::Arg, 0});
    const BufferId id1 = state.id_map.at(BaseRef{BaseKind::Arg, 1});
    EXPECT_EQ(id0, id1);
    const Bounds merged = state.rbt->get(id0);
    const VaRegion &r0 = driver.region(cfg.buffers[0]);
    const VaRegion &r1 = driver.region(cfg.buffers[1]);
    EXPECT_LE(merged.base_addr, r0.base);
    EXPECT_GE(merged.base_addr + merged.size, r1.base + r1.size);

    // The kernel still runs clean under the merged protection.
    WorkloadInstance w;
    w.program = prog;
    w.ntid = 32;
    w.nctaid = 1;
    w.buffers = cfg.buffers;
    Gpu gpu(small_config(), driver);
    const auto idx = gpu.launch(std::move(state));
    gpu.run();
    EXPECT_TRUE(gpu.result(idx).violations.empty());
    driver.finish(gpu.launch_state(idx));
}

TEST(IdManagement, FarOverflowStillDetectedUnderMerging)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev, DriverPartition{.id_count = 1}, 5); // 1 ID, 2 buffers
    KernelBuilder b("poke");
    const int a = b.arg_ptr("a");
    const int bb = b.arg_ptr("b");
    (void)bb;
    const int base = b.ldarg(a);
    // Far beyond even the merged region (two 512B reservations).
    b.st(b.gep(base, b.mov_imm(4096), 4), b.mov_imm(1), 4);
    b.exit();
    const KernelProgram prog = b.finish();

    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 1;
    cfg.nctaid = 1;
    cfg.buffers.push_back(driver.create_buffer(64));
    cfg.buffers.push_back(driver.create_buffer(64));

    LaunchState state = driver.launch(cfg);
    EXPECT_TRUE(state.ids_merged);
    Gpu gpu(small_config(), driver);
    const auto idx = gpu.launch(std::move(state));
    gpu.run();
    EXPECT_FALSE(gpu.result(idx).violations.empty());
}

// --- Read-only buffer enforcement (Table 1's constant/texture class) ----

TEST(ReadOnly, StoreToReadOnlyBufferCaught)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    KernelBuilder b("ro_write");
    const int lut = b.arg_ptr("lut");
    const int base = b.ldarg(lut);
    b.st(b.gep(base, b.mov_imm(0), 4), b.mov_imm(0xBAD), 4);
    b.exit();
    const KernelProgram prog = b.finish();

    const BufferHandle ro =
        driver.create_buffer(256, /*read_only=*/true, false, "lut");
    const std::int32_t sentinel = 0x600D;
    driver.upload(ro, &sentinel, sizeof(sentinel));

    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 1;
    cfg.nctaid = 1;
    cfg.buffers = {ro};
    Gpu gpu(small_config(), driver);
    const auto idx = gpu.launch(driver.launch(cfg));
    gpu.run();

    const KernelResult r = gpu.result(idx);
    ASSERT_FALSE(r.violations.empty());
    EXPECT_EQ(r.violations[0].kind, ViolationKind::ReadOnlyWrite);

    std::int32_t value = 0;
    driver.download(ro, &value, sizeof(value));
    EXPECT_EQ(value, sentinel); // store squashed
}

TEST(ReadOnly, LoadsFromReadOnlyBufferFine)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    KernelBuilder b("ro_read");
    const int lut = b.arg_ptr("lut");
    const int out = b.arg_ptr("out");
    const int base = b.ldarg(lut);
    const int v = b.ld(b.gep(base, b.mov_imm(1), 4), 4);
    const int obase = b.ldarg(out);
    b.st(b.gep(obase, b.mov_imm(0), 4), v, 4);
    b.exit();
    const KernelProgram prog = b.finish();

    const BufferHandle ro = driver.create_buffer(256, true, false, "lut");
    const std::int32_t table[2] = {11, 22};
    driver.upload(ro, table, sizeof(table));
    const BufferHandle sink = driver.create_buffer(64);

    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 1;
    cfg.nctaid = 1;
    cfg.buffers = {ro, sink};
    Gpu gpu(small_config(), driver);
    const auto idx = gpu.launch(driver.launch(cfg));
    gpu.run();
    EXPECT_TRUE(gpu.result(idx).violations.empty());

    std::int32_t got = 0;
    driver.download(sink, &got, sizeof(got));
    EXPECT_EQ(got, 22);
}

// --- Method A: binding-table addressing (§2.2, Fig. 2) -------------------

KernelProgram
make_bt_copy(std::int64_t store_offset_elems)
{
    // out[gid + off] = in[gid] via binding-table sends (Intel style).
    KernelBuilder b("bt_copy");
    b.arg_ptr("in");
    b.arg_ptr("out");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int v = b.ld_bt(/*bti=*/0, gid, 4);
    b.st_bt(/*bti=*/1, gid, 4, v, store_offset_elems * 4);
    b.exit();
    return b.finish();
}

TEST(BindingTable, FunctionalCopyThroughBt)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w;
    w.program = make_bt_copy(0);
    w.ntid = 128;
    w.nctaid = 2;
    const std::uint64_t n = 256;
    w.buffers.push_back(driver.create_buffer(n * 4));
    w.buffers.push_back(driver.create_buffer(n * 4));
    std::vector<std::int32_t> in(n);
    for (std::uint64_t i = 0; i < n; ++i)
        in[i] = static_cast<std::int32_t>(3 * i + 1);
    driver.upload(w.buffers[0], in.data(), n * 4);

    const RunOutcome run =
        run_workload(small_config(), driver, w, true, false);
    EXPECT_TRUE(run.result.violations.empty());
    // BT checks happen with zero RCache traffic.
    EXPECT_GT(run.bcu.get("bt_checks"), 0u);
    EXPECT_EQ(run.rcache.get("lookups"), 0u);

    std::vector<std::int32_t> out(n);
    driver.download(w.buffers[1], out.data(), n * 4);
    EXPECT_EQ(out, in);
}

TEST(BindingTable, OverflowThroughBtDetected)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w;
    w.program = make_bt_copy(64); // store escapes the output buffer
    w.ntid = 128;
    w.nctaid = 2;
    const std::uint64_t n = 256;
    w.buffers.push_back(driver.create_buffer(n * 4));
    w.buffers.push_back(driver.create_buffer(n * 4));

    const RunOutcome run =
        run_workload(small_config(), driver, w, true, false);
    EXPECT_FALSE(run.result.violations.empty());
    for (const Violation &v : run.result.violations)
        EXPECT_EQ(v.kind, ViolationKind::OutOfBounds);
}

TEST(BindingTable, ReadOnlyEnforcedThroughBt)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    KernelBuilder b("bt_ro");
    b.arg_ptr("lut");
    const int gid = b.sreg(SpecialReg::GlobalId);
    b.st_bt(0, gid, 4, gid);
    b.exit();
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 32;
    w.nctaid = 1;
    w.buffers.push_back(driver.create_buffer(32 * 4, /*read_only=*/true));

    const RunOutcome run =
        run_workload(small_config(), driver, w, true, false);
    ASSERT_FALSE(run.result.violations.empty());
    EXPECT_EQ(run.result.violations[0].kind,
              ViolationKind::ReadOnlyWrite);
}

TEST(BindingTable, StaticAnalysisSeesBtBases)
{
    const KernelProgram prog = make_bt_copy(0);
    StaticLaunchInfo info;
    info.ntid = 128;
    info.nctaid = 2;
    info.arg_buffer_sizes = {256 * 4, 256 * 4};
    info.arg_buffer_pow2 = {false, false};
    info.scalar_values = {std::nullopt, std::nullopt};
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 2u);
    for (const BatEntry &e : bat.entries) {
        EXPECT_EQ(e.base.kind, BaseKind::Arg);
        EXPECT_EQ(e.verdict, Verdict::InBounds);
    }
}

// --- Table 4: isolation guarantees ----------------------------------------

TEST(Isolation, ConcurrentKernelsCannotForgeIntoEachOther)
{
    // Kernel A runs with a pointer whose address bits are redirected at
    // kernel B's buffer (the intra-core multi-kernel threat): the
    // decrypted ID resolves against A's RBT, whose entry does not cover
    // B's region.
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);

    // Victim kernel B's buffer.
    const BufferHandle victim = driver.create_buffer(256, false, false, "B");
    const std::int32_t sentinel = 0x0B5E55ED;
    driver.upload(victim, &sentinel, sizeof(sentinel));

    // Benign kernel B (touches its own buffer).
    KernelBuilder bb("victim");
    const int vb = bb.arg_ptr("buf");
    const int vgid = bb.sreg(SpecialReg::GlobalId);
    const int vbase = bb.ldarg(vb);
    const int vaddr2 = bb.gep(vbase, vgid, 0); // all lanes read slot 0
    (void)bb.ld(vaddr2, 4);
    bb.exit();
    const KernelProgram victim_prog = bb.finish();

    // Attacker kernel A: redirects its own pointer's address bits at
    // the victim's buffer base (layout known).
    KernelBuilder ba("attacker");
    const int ab = ba.arg_ptr("mine");
    const int target = ba.arg_scalar("victim_base");
    const int abase = ba.ldarg(ab);
    const int tag_only = ba.alui(
        Op::And, abase, static_cast<std::int64_t>(0xFFFF000000000000ull));
    const int redirected = ba.alu(Op::Or, tag_only, ba.ldarg(target));
    ba.st(redirected, ba.mov_imm(0xE711), 4);
    ba.exit();
    const KernelProgram attacker_prog = ba.finish();

    const BufferHandle mine = driver.create_buffer(64, false, false, "A");

    LaunchConfig vcfg;
    vcfg.program = &victim_prog;
    vcfg.ntid = 32;
    vcfg.nctaid = 1;
    vcfg.buffers = {victim};

    LaunchConfig acfg;
    acfg.program = &attacker_prog;
    acfg.ntid = 1;
    acfg.nctaid = 1;
    acfg.buffers = {mine};
    acfg.scalars = {0, static_cast<std::int64_t>(
                           driver.region(victim).base)};

    Gpu gpu(small_config(), driver);
    gpu.launch(driver.launch(vcfg)); // both resident on all cores
    const auto ai = gpu.launch(driver.launch(acfg));
    gpu.run();

    const KernelResult ar = gpu.result(ai);
    EXPECT_FALSE(ar.violations.empty());
    std::int32_t check = 0;
    driver.download(victim, &check, sizeof(check));
    EXPECT_EQ(check, sentinel);
}

TEST(Isolation, LocalVariableOverflowCaught)
{
    // Two per-thread local arrays A (4 elems) and B. A thread indexing
    // past A's interleaved region lands in B's region — a different
    // bounds entry, so the BCU flags it (Table 4: local isolation).
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    KernelBuilder b("local_oob");
    const int out = b.arg_ptr("out");
    const int la = b.local("A", 4, 4);
    const int lb = b.local("B", 4, 4);
    (void)lb;
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int nthreads = b.sreg(SpecialReg::NThreads);
    const int abase = b.ldloc(la);
    // Element index 4 (one past A's 4 elements): slot = 4*nthreads+gid.
    const int slot = b.mad(b.mov_imm(4), nthreads, gid);
    b.st(b.gep(abase, slot, 4), gid, 4, MemSpace::Local);
    const int obase = b.ldarg(out);
    b.st(b.gep(obase, gid, 4), gid, 4);
    b.exit();

    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 32;
    w.nctaid = 1;
    w.buffers.push_back(driver.create_buffer(32 * 4));

    const RunOutcome run =
        run_workload(small_config(), driver, w, true, false);
    ASSERT_FALSE(run.result.violations.empty());
    EXPECT_EQ(run.result.violations[0].kind, ViolationKind::OutOfBounds);
}

TEST(Isolation, LocalVariableInBoundsClean)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "loc";
    p.inner_iters = 4;
    WorkloadInstance w;
    w.program = make_local_array(p);
    w.ntid = 64;
    w.nctaid = 2;
    const std::uint64_t n = 128;
    w.buffers.push_back(driver.create_buffer(n * 4));
    w.buffers.push_back(driver.create_buffer(n * 4));
    std::vector<std::int32_t> data(n, 3);
    driver.upload(w.buffers[0], data.data(), n * 4);

    const RunOutcome run =
        run_workload(small_config(), driver, w, true, false);
    EXPECT_TRUE(run.result.violations.empty());

    // out[i] = sum over 4 local slots of (in[i] + e) = 4*3 + 0+1+2+3.
    std::vector<std::int32_t> got(n);
    driver.download(w.buffers[1], got.data(), n * 4);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], 18);
}

// --- Argument-count limit (§2.1) ------------------------------------------

TEST(ArgLimit, MoreThan128ArgsRejected)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    KernelBuilder b("many_args");
    for (int i = 0; i < 128; ++i)
        b.arg_scalar("s" + std::to_string(i));
    b.exit();
    KernelProgram prog = b.finish();
    // KernelBuilder::finish() validates, and validate() refuses a
    // 129th argument too, so it is added afterwards.
    prog.args.push_back(prog.args.back());
    EXPECT_THROW(prog.validate(), std::invalid_argument);

    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 1;
    cfg.nctaid = 1;
    EXPECT_THROW(
        {
            try {
                (void)driver.launch(cfg);
            } catch (const SimulationError &e) {
                EXPECT_NE(std::string(e.what()).find("128 kernel arguments"),
                          std::string::npos)
                    << e.what();
                throw;
            }
        },
        SimulationError);
}

} // namespace
} // namespace gpushield
