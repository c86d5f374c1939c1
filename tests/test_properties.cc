/**
 * @file
 * Property-based tests on the system's core invariants, driven by
 * parameterized sweeps and seeded randomness:
 *
 *  - Completeness: every out-of-bounds store, at any offset, is
 *    detected and suppressed (Type 2 and Type 3 paths).
 *  - Soundness: in-bounds kernels never trigger violations, for any
 *    buffer size/grid combination; statically-elided checks never
 *    change results.
 *  - Component invariants: cipher bijectivity per key, coalescer
 *    coverage, RCache FIFO residency, interpreter ALU semantics.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "isa/builder.h"
#include "shield/cipher.h"
#include "shield/pointer.h"
#include "shield/rcache.h"
#include "sim/config.h"
#include "sim/gpu.h"
#include "sim/lsu.h"
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

// --- Completeness: overflow offsets always detected --------------------

class OverflowOffset : public ::testing::TestWithParam<std::int64_t>
{
};

TEST_P(OverflowOffset, StoreDetectedAndSuppressed)
{
    const std::int64_t offset = GetParam();
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "oob";
    WorkloadInstance w;
    w.program = make_overflowing(p, offset);
    w.ntid = 128;
    w.nctaid = 2;
    const std::uint64_t n = 256;
    w.buffers.push_back(driver.create_buffer(n * 4));
    w.buffers.push_back(driver.create_buffer(n * 4));
    // A victim buffer placed right after the output.
    const BufferHandle victim = driver.create_buffer(1 << 16);
    std::vector<std::int32_t> sentinel(1 << 14, 0x51);
    driver.upload(victim, sentinel.data(), sentinel.size() * 4);

    const RunOutcome run =
        run_workload(small_config(), driver, w, true, false);
    EXPECT_FALSE(run.result.violations.empty())
        << "offset " << offset << " escaped detection";
    EXPECT_FALSE(run.result.aborted);

    // The victim is untouched: suppressed stores never commit.
    std::vector<std::int32_t> check(sentinel.size());
    driver.download(victim, check.data(), check.size() * 4);
    EXPECT_EQ(check, sentinel);
}

INSTANTIATE_TEST_SUITE_P(Offsets, OverflowOffset,
                         ::testing::Values(1, 7, 8, 64, 100, 128, 1000,
                                           4096, 100000, -1, -64, -4096));

// --- Soundness: size sweeps never false-positive ------------------------

class GridShape
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(GridShape, InBoundsKernelNeverFlagged)
{
    const auto [ntid, nctaid] = GetParam();
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "clean";
    p.inputs = 2;
    WorkloadInstance w;
    w.program = make_streaming(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    for (int i = 0; i < 3; ++i)
        w.buffers.push_back(driver.create_buffer(n * 4));

    const RunOutcome checked =
        run_workload(small_config(), driver, w, true, false);
    EXPECT_TRUE(checked.result.violations.empty())
        << ntid << "x" << nctaid;
    EXPECT_GT(checked.result.stats.get("checks"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GridShape,
    ::testing::Values(std::pair{32u, 1u}, std::pair{33u, 1u},
                      std::pair{64u, 3u}, std::pair{96u, 5u},
                      std::pair{128u, 8u}, std::pair{256u, 7u},
                      std::pair{224u, 2u}, std::pair{512u, 2u}));

// --- Type 3 completeness -------------------------------------------------

class Type3Overflow : public ::testing::TestWithParam<std::int64_t>
{
};

TEST_P(Type3Overflow, SizedPointerWindowEnforced)
{
    const std::int64_t overflow = GetParam();
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);

    // Pow2 buffer (reserved 512B = 128 elements); base+offset store at
    // window+overflow must be flagged by the offset comparison alone.
    KernelBuilder b("t3oob");
    const int a = b.arg_ptr("a");
    const int base = b.ldarg(a);
    const int idx = b.mov_imm(128 + overflow);
    b.st_bo(base, idx, 4, idx);
    b.exit();
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 1;
    w.nctaid = 1;
    w.buffers.push_back(driver.create_buffer(400, false, /*pow2=*/true));

    const RunOutcome run =
        run_workload(small_config(), driver, w, true, true);
    EXPECT_FALSE(run.result.violations.empty()) << "overflow " << overflow;
    // No RCache traffic for Type 3 checks.
    EXPECT_EQ(run.rcache.get("lookups"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Windows, Type3Overflow,
                         ::testing::Values(0, 1, 16, 1024, -200));

// --- Static elision is behaviour-preserving ------------------------------

class StaticElision : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(StaticElision, ElidedChecksCannotChangeResults)
{
    const unsigned seed = GetParam();
    Rng rng(seed);
    const unsigned ntid = 32 * static_cast<unsigned>(1 + rng.below(8));
    const unsigned nctaid = static_cast<unsigned>(1 + rng.below(6));
    const unsigned inputs = static_cast<unsigned>(1 + rng.below(4));

    auto make = [&](Driver &driver) {
        PatternParams p;
        p.name = "elide";
        p.inputs = inputs;
        p.inner_iters = 1 + static_cast<unsigned>(seed % 3);
        WorkloadInstance w;
        w.program = make_streaming(p);
        w.ntid = ntid;
        w.nctaid = nctaid;
        const std::uint64_t n = std::uint64_t{ntid} * nctaid;
        for (unsigned i = 0; i < inputs + 1; ++i) {
            w.buffers.push_back(driver.create_buffer(n * 4));
            std::vector<std::int32_t> data(n);
            for (std::uint64_t j = 0; j < n; ++j) {
                std::uint64_t s = seed + i * 1009 + j;
                data[j] = static_cast<std::int32_t>(splitmix64(s) & 0xFF);
            }
            driver.upload(w.buffers.back(), data.data(), n * 4);
        }
        return w;
    };

    GpuDevice dev1(kPageSize2M);
    Driver drv1(dev1);
    const WorkloadInstance w1 = make(drv1);
    run_workload(small_config(), drv1, w1, true, false);
    std::vector<std::int32_t> out_checked(ntid * nctaid);
    drv1.download(w1.buffers.back(), out_checked.data(),
                  out_checked.size() * 4);

    GpuDevice dev2(kPageSize2M);
    Driver drv2(dev2);
    const WorkloadInstance w2 = make(drv2);
    const RunOutcome elided =
        run_workload(small_config(), drv2, w2, true, true);
    std::vector<std::int32_t> out_elided(ntid * nctaid);
    drv2.download(w2.buffers.back(), out_elided.data(),
                  out_elided.size() * 4);

    EXPECT_EQ(out_checked, out_elided);
    EXPECT_EQ(elided.result.stats.get("checks"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticElision, ::testing::Range(0u, 8u));

// --- Cipher bijectivity per key ------------------------------------------

class CipherKeys : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CipherKeys, BijectiveAndScrambling)
{
    IdCipher cipher(GetParam());
    std::set<std::uint16_t> images;
    unsigned moved = 0;
    for (std::uint32_t id = 0; id < kNumBufferIds; id += 7) {
        const auto enc = cipher.encrypt(static_cast<std::uint16_t>(id));
        EXPECT_EQ(cipher.decrypt(enc), id);
        images.insert(enc);
        moved += enc != id;
    }
    EXPECT_EQ(images.size(), (kNumBufferIds + 6) / 7); // injective sample
    EXPECT_GT(moved, images.size() * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Keys, CipherKeys,
                         ::testing::Values(0ull, 1ull, 0xDEADBEEFull,
                                           0xFFFFFFFFFFFFFFFFull,
                                           0x123456789ABCDEFull));

// --- Coalescer coverage ----------------------------------------------------

class CoalescerSeed : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoalescerSeed, LinesCoverEveryAccessedByte)
{
    Rng rng(GetParam());
    MemOp op;
    op.mask = static_cast<LaneMask>(rng.next64() | 1); // >=1 lane
    op.size = rng.chance(0.5) ? 4 : 8;
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        op.lane_addr[lane] = 0x10000 + rng.below(4096);

    // coalesce_into replaces the scratch vector's contents: stale lines
    // from an earlier instruction must not survive.
    std::vector<VAddr> lines = {0x0, 0xFFFF'0000};
    coalesce_into(op, kLineSize, lines);

    // Sorted, unique, aligned.
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i] % kLineSize, 0u);
        if (i > 0) {
            EXPECT_LT(lines[i - 1], lines[i]);
        }
    }
    // Every accessed byte lies in some line.
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (((op.mask >> lane) & 1) == 0)
            continue;
        for (unsigned byte = 0; byte < op.size; ++byte) {
            const VAddr a = op.lane_addr[lane] + byte;
            const VAddr line = a - a % kLineSize;
            EXPECT_TRUE(std::binary_search(lines.begin(), lines.end(),
                                           line))
                << "byte " << a << " uncovered";
        }
    }
    // No gratuitous lines: each line contains at least one accessed byte.
    for (const VAddr line : lines) {
        bool touched = false;
        for (unsigned lane = 0; lane < kWarpSize && !touched; ++lane) {
            if (((op.mask >> lane) & 1) == 0)
                continue;
            const VAddr lo = op.lane_addr[lane];
            touched = lo < line + kLineSize && lo + op.size > line;
        }
        EXPECT_TRUE(touched) << "line " << line << " spurious";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescerSeed, ::testing::Range(0u, 16u));

// --- RCache FIFO residency --------------------------------------------------

TEST(RCacheProperty, LastKInsertionsAreL1Resident)
{
    for (const unsigned entries : {1u, 2u, 4u, 8u}) {
        RCacheConfig cfg;
        cfg.l1_entries = entries;
        RCache rc(cfg);
        Bounds b;
        b.valid = true;
        b.kernel = 1;
        b.size = 16;
        const unsigned total = 24;
        for (unsigned id = 1; id <= total; ++id) {
            b.base_addr = id * 0x100;
            rc.fill(1, static_cast<BufferId>(id), b);
        }
        // FIFO: exactly the last `entries` fills are L1-resident.
        // Probe the tail first — looking up older ids would promote
        // them and evict the tail.
        for (unsigned id = total; id > total - entries; --id) {
            EXPECT_EQ(rc.lookup(1, static_cast<BufferId>(id)).level,
                      RCacheLevel::L1)
                << "entries=" << entries << " id=" << id;
        }
        // Older ids fell to L2 (capacity permitting).
        if (total - entries >= 1 && 24 - entries <= 64) {
            EXPECT_EQ(rc.lookup(1, static_cast<BufferId>(1)).level,
                      RCacheLevel::L2);
        }
    }
}

// --- Interpreter ALU semantics ----------------------------------------------

struct AluCase
{
    Op op;
    std::int64_t a, b, expect;
};

class AluSemantics : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluSemantics, MatchesReference)
{
    const AluCase c = GetParam();
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);

    KernelBuilder b("alu");
    const int out = b.arg_ptr("out");
    const int ra = b.mov_imm(c.a);
    const int rr = b.alui(c.op, ra, c.b);
    const int base = b.ldarg(out);
    b.st(b.gep(base, b.mov_imm(0), 8), rr, 8);
    b.exit();

    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 1;
    w.nctaid = 1;
    w.buffers.push_back(driver.create_buffer(64));
    run_workload(small_config(), driver, w, true, false);

    std::int64_t got = 0;
    driver.download(w.buffers[0], &got, sizeof(got));
    EXPECT_EQ(got, c.expect)
        << op_name(c.op) << "(" << c.a << ", " << c.b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluSemantics,
    ::testing::Values(AluCase{Op::Add, 7, 5, 12},
                      AluCase{Op::Sub, 7, 5, 2},
                      AluCase{Op::Mul, -3, 9, -27},
                      AluCase{Op::Divi, 22, 7, 3},
                      AluCase{Op::Divi, -22, 7, -3},
                      AluCase{Op::Rem, 22, 7, 1},
                      AluCase{Op::Min, -4, 9, -4},
                      AluCase{Op::Max, -4, 9, 9},
                      AluCase{Op::And, 0b1100, 0b1010, 0b1000},
                      AluCase{Op::Or, 0b1100, 0b1010, 0b1110},
                      AluCase{Op::Xor, 0b1100, 0b1010, 0b0110},
                      AluCase{Op::Shl, 3, 4, 48},
                      AluCase{Op::Shr, -64, 2, -16}));

} // namespace
} // namespace gpushield
