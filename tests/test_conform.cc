/**
 * @file
 * Conformance-oracle subsystem tests plus regression tests for the
 * driver/BCU correctness fixes that the oracle was built to catch:
 * download on unmapped pages, the BCU's truncated kernel-ID compare,
 * 32-bit RBT size-field truncation, and device_malloc overflow.
 */

#include <gtest/gtest.h>

#include <array>

#include "common/bitutil.h"
#include "conform/fuzz.h"
#include "conform/oracle.h"
#include "conform/runner.h"
#include "driver/driver.h"
#include "harness/metrics.h"
#include "shield/cipher.h"
#include "shield/pointer.h"
#include "shield/region_backend.h"
#include "workloads/kernels.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

using conform::ConformCellResult;
using conform::FuzzKnobs;
using conform::LaneOracle;
using workloads::PatternParams;

// --- Satellite fix 1: download must not ignore failed translation ----

TEST(DriverDownload, UnmappedPageIsFatal)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    const BufferHandle h = driver.create_buffer(256);
    // Yank the backing page out from under the driver. A real driver
    // never does this; a bug elsewhere (or a stale handle) can, and
    // download used to silently read physical address 0 instead.
    dev.page_table().unmap(align_down(driver.region(h).base, kPageSize2M));
    std::array<std::uint8_t, 16> out{};
    EXPECT_EXIT(driver.download(h, out.data(), out.size()),
                ::testing::ExitedWithCode(1), "unmapped buffer page");
}

// --- Satellite fix 2: full-width kernel-ID compare in the BCU --------
//
// The RBT keeps the owning kernel's full 16-bit ID and the BCU must
// compare all of it. The old code masked with 0xFFF, so two kernels
// 4096 IDs apart aliased: kernel 4097 could pass a check against an
// entry owned by kernel 1.

TEST(BcuKernelMismatch, KernelIdsThousandsApartDoNotAlias)
{
    constexpr KernelId kOwner = 1;
    constexpr KernelId kOther = 4097; // == kOwner mod 4096
    constexpr std::uint64_t kKey = 0xFEED;
    constexpr BufferId kId = 42;

    PhysicalMemory mem;
    RegionBoundsTable rbt(mem, 0xE000'0000ull);
    rbt.clear_all();
    Bounds b;
    b.base_addr = 0x1000;
    b.size = 256;
    b.valid = true;
    b.kernel = kOwner;
    rbt.set(kId, b);

    RegionShieldBackend bcu{RCacheConfig{}, 2};
    bcu.register_kernel(kOther, kKey, &rbt);
    IdCipher cipher(kKey);

    BcuRequest req;
    req.kernel = kOther;
    req.pointer = make_tagged_ptr(0x1000, cipher.encrypt(kId));
    req.min_addr = 0x1000;
    req.max_end = 0x1004;
    const BcuResponse resp = bcu.check(req);
    EXPECT_TRUE(resp.checked);
    EXPECT_TRUE(resp.violation);
    EXPECT_EQ(resp.kind, ViolationKind::KernelMismatch);

    // Control: the owning kernel itself still passes.
    RegionShieldBackend own{RCacheConfig{}, 2};
    own.register_kernel(kOwner, kKey, &rbt);
    req.kernel = kOwner;
    EXPECT_FALSE(own.check(req).violation);
}

// --- Satellite fix 3: no silent 32-bit truncation of bounds ----------

TEST(DriverLaunch, BufferOver4GiBIsNotTruncated)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "huge";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);

    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 32;
    cfg.nctaid = 1;
    // 4GiB + 512: its size cannot be represented in the RBT's 32-bit
    // size field. The old code cast it to uint32_t, leaving the entry
    // covering 512 bytes of a 4GiB buffer.
    cfg.buffers.push_back(driver.create_buffer((1ull << 32) + 512));
    cfg.buffers.push_back(driver.create_buffer(32 * 4));
    EXPECT_THROW(
        {
            try {
                (void)driver.launch(cfg);
            } catch (const SimulationError &e) {
                EXPECT_NE(std::string(e.what()).find("32-bit"),
                          std::string::npos)
                    << e.what();
                throw;
            }
        },
        SimulationError);
}

TEST(DriverLaunch, MergedGroupSplitsInsteadOfTruncating)
{
    GpuDevice dev(kPageSize2M);
    // 3 usable IDs for 4 pointer args: launch merges
    // adjacent buffers into shared entries (group size 2).
    Driver driver(dev, DriverPartition{.id_count = 3});
    PatternParams p;
    p.name = "merged";
    p.inputs = 3;
    const KernelProgram prog = workloads::make_multibuffer(p);

    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 32;
    cfg.nctaid = 1;
    bool first = true;
    for (std::size_t a = 0; a < prog.args.size(); ++a) {
        if (!prog.args[a].is_pointer)
            continue;
        cfg.buffers.push_back(driver.create_buffer(32 * 4));
        if (first) {
            // A >4GiB spacer (never bound) between the first and second
            // arg buffers: the merged hull of {arg0, arg1} would exceed
            // the 32-bit size field.
            driver.create_buffer(1ull << 32);
            first = false;
        }
    }

    LaunchState state = driver.launch(cfg);
    EXPECT_TRUE(state.ids_merged);

    // Every argument's RBT entry must still contain its whole buffer —
    // the oversized group closed early (costing an ID) rather than
    // truncating the merged size.
    int arg_no = 0;
    for (std::size_t a = 0; a < prog.args.size(); ++a) {
        if (!prog.args[a].is_pointer)
            continue;
        const auto it =
            state.id_map.find(BaseRef{BaseKind::Arg, static_cast<int>(a)});
        ASSERT_NE(it, state.id_map.end());
        const Bounds entry = state.rbt->get(it->second);
        const VaRegion &r = driver.region(cfg.buffers[arg_no++]);
        EXPECT_TRUE(entry.valid);
        EXPECT_TRUE(entry.contains(r.base, r.size))
            << "arg " << a << " not covered by its RBT entry";
    }
    driver.finish(state);
}

// --- Satellite fix 4: device_malloc overflow returns null ------------

TEST(DriverHeap, DeviceMallocOverflowReturnsNull)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "heapk";
    const KernelProgram prog = workloads::make_heap(p);
    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 32;
    cfg.nctaid = 1;
    cfg.buffers.push_back(driver.create_buffer(32 * 4));
    cfg.heap_bytes = 1 << 16;
    LaunchState state = driver.launch(cfg);

    // `cursor + bytes` used to wrap around and pass the limit check.
    EXPECT_EQ(driver.device_malloc(state, ~std::uint64_t{0}), 0u);
    EXPECT_EQ(driver.device_malloc(state, ~std::uint64_t{0} - 8), 0u);
    // The heap is still usable after a failed malloc.
    EXPECT_NE(driver.device_malloc(state, 64), 0u);
    driver.finish(state);
}

// --- LaneOracle unit tests -------------------------------------------

class OracleEventTest : public ::testing::Test
{
  protected:
    OracleEventTest() : dev_(kPageSize2M), driver_(dev_), oracle_(driver_)
    {
        PatternParams p;
        p.name = "probe";
        p.inputs = 1;
        prog_ = workloads::make_streaming(p);
        LaunchConfig cfg;
        cfg.program = &prog_;
        cfg.ntid = 32;
        cfg.nctaid = 1;
        in_ = driver_.create_buffer(32 * 4);
        out_ = driver_.create_buffer(32 * 4);
        cfg.buffers = {in_, out_};
        state_ = driver_.launch(cfg);
        oracle_.on_launch(state_);
    }

    /** A synthetic warp-granular verdict over lanes of buffer @p h. */
    MemCheckEvent
    event(MemOp &op, VAddr base, bool violation, LaneMask suppress)
    {
        op.instr = &dummy_;  // never matches the (empty) pending slot
        op.pc = 1;
        op.mask = 0xF;
        op.size = 4;
        for (unsigned lane = 0; lane < 4; ++lane)
            op.lane_addr[lane] = base + lane * 4;
        op.min_addr = base;
        op.max_end = base + 16;
        MemCheckEvent ev;
        ev.kernel = state_.kernel_id;
        ev.op = &op;
        ev.checked = true;
        ev.violation = violation;
        ev.suppress_mask = suppress;
        return ev;
    }

    GpuDevice dev_;
    Driver driver_;
    KernelProgram prog_;
    BufferHandle in_, out_;
    LaunchState state_;
    LaneOracle oracle_;
    Instr dummy_;
};

TEST_F(OracleEventTest, InBoundsCleanVerdictAgrees)
{
    MemOp op;
    MemCheckEvent ev =
        event(op, driver_.region(in_).base, /*violation=*/false, 0);
    oracle_.on_mem_check(ev);
    EXPECT_EQ(oracle_.counters().agree_clean, 1u);
    EXPECT_TRUE(oracle_.clean());
}

TEST_F(OracleEventTest, FlagOnInBoundsLanesIsFalsePositive)
{
    MemOp op;
    MemCheckEvent ev =
        event(op, driver_.region(in_).base, /*violation=*/true, 0xF);
    oracle_.on_mem_check(ev);
    EXPECT_EQ(oracle_.counters().fp_checks, 1u);
    EXPECT_EQ(oracle_.counters().fp_lanes, 4u);
    EXPECT_TRUE(oracle_.no_false_negatives());
    ASSERT_EQ(oracle_.findings().size(), 1u);
    EXPECT_EQ(oracle_.findings()[0].kind,
              conform::Finding::Kind::FalsePositive);
}

TEST_F(OracleEventTest, MissedOutOfBoundsLaneIsFalseNegative)
{
    MemOp op;
    // 0x10 lies outside every region the kernel may touch; a clean
    // verdict there is the hard-bug direction.
    MemCheckEvent ev = event(op, 0x10, /*violation=*/false, 0);
    oracle_.on_mem_check(ev);
    EXPECT_EQ(oracle_.counters().fn_checks, 1u);
    EXPECT_EQ(oracle_.counters().fn_lanes, 4u);
    EXPECT_FALSE(oracle_.no_false_negatives());
    EXPECT_FALSE(oracle_.clean());
}

TEST_F(OracleEventTest, CaughtOutOfBoundsWithFullSquashAgrees)
{
    MemOp op;
    MemCheckEvent ev = event(op, 0x10, /*violation=*/true, 0xF);
    oracle_.on_mem_check(ev);
    EXPECT_EQ(oracle_.counters().agree_violation, 1u);
    EXPECT_EQ(oracle_.counters().unsuppressed_oob_lanes, 0u);
    EXPECT_TRUE(oracle_.no_false_negatives());
}

TEST_F(OracleEventTest, EscapedLaneOnCaughtViolationIsReported)
{
    MemOp op;
    // Flagged, but the squash mask missed two of the four oob lanes.
    MemCheckEvent ev = event(op, 0x10, /*violation=*/true, 0x3);
    oracle_.on_mem_check(ev);
    EXPECT_EQ(oracle_.counters().agree_violation, 1u);
    EXPECT_EQ(oracle_.counters().unsuppressed_oob_lanes, 2u);
    ASSERT_EQ(oracle_.findings().size(), 1u);
    EXPECT_EQ(oracle_.findings()[0].kind,
              conform::Finding::Kind::UnsuppressedLane);
}

TEST_F(OracleEventTest, StatSetRoundTripsThroughJsonl)
{
    MemOp op;
    oracle_.on_mem_check(
        event(op, driver_.region(in_).base, /*violation=*/false, 0));

    harness::RunRecord r;
    r.key = "cell";
    r.ok = true;
    r.conform = oracle_.to_statset();
    harness::MetricsRegistry reg(1);
    reg.record(0, r);
    std::stringstream ss;
    reg.write_jsonl(ss);
    EXPECT_NE(ss.str().find("\"conform\""), std::string::npos);
    const auto back = harness::MetricsRegistry::read_jsonl(ss);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].conform, r.conform);

    // Records without conformance data serialize without the field, so
    // pre-oracle golden files stay byte-identical.
    harness::RunRecord plain;
    plain.key = "cell";
    plain.ok = true;
    harness::MetricsRegistry reg2(1);
    reg2.record(0, plain);
    std::stringstream ss2;
    reg2.write_jsonl(ss2);
    EXPECT_EQ(ss2.str().find("\"conform\""), std::string::npos);
}

// --- Conformance runner end-to-end -----------------------------------

TEST(ConformRunner, CleanFuzzKernelConforms)
{
    FuzzKnobs k;
    k.seed = 1;
    const ConformCellResult r =
        conform::run_conformance_cell(conform::fuzz_cell(k));
    EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
    EXPECT_EQ(r.conform.get("fn_checks"), 0u);
    EXPECT_GT(r.conform.get("checked"), 0u);
    EXPECT_TRUE(r.image_match);
}

TEST(ConformRunner, PlantedOutOfBoundsIsDetectedWithoutFalseNegatives)
{
    FuzzKnobs k;
    k.seed = 2;
    k.plant = true;
    const ConformCellResult r =
        conform::run_conformance_cell(conform::fuzz_cell(k));
    EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
    EXPECT_GE(r.violations, 1u);
    EXPECT_EQ(r.conform.get("fn_checks"), 0u);
}

TEST(ConformRunner, CorpusCellConforms)
{
    const auto &defs = workloads::cuda_benchmarks();
    ASSERT_FALSE(defs.empty());
    const ConformCellResult r =
        conform::run_conformance_cell(conform::corpus_cell(defs.front()));
    EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
    EXPECT_EQ(r.conform.get("fn_checks"), 0u);
    EXPECT_EQ(r.conform.get("unsuppressed_oob_lanes"), 0u);
}

TEST(ConformFuzz, KnobResolutionIsDeterministic)
{
    FuzzKnobs a;
    a.seed = 7;
    const FuzzKnobs r1 = conform::resolve_knobs(a);
    const FuzzKnobs r2 = conform::resolve_knobs(a);
    EXPECT_EQ(r1.steps, r2.steps);
    EXPECT_EQ(r1.nbufs, r2.nbufs);
    EXPECT_GT(r1.steps, 0u);
    EXPECT_GT(r1.nbufs, 0u);
    // Explicit knobs survive resolution (minimizer contract).
    FuzzKnobs b = r1;
    b.steps = 3;
    EXPECT_EQ(conform::resolve_knobs(b).steps, 3u);
}

} // namespace
} // namespace gpushield
