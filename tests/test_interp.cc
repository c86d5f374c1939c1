/**
 * @file
 * Direct interpreter tests: special-register semantics per lane,
 * shared-memory scratchpad behaviour, Method B/C address formation,
 * and store-value routing — exercised through minimal single-purpose
 * kernels on the full stack. The op-semantics tests step one
 * instruction on a hand-built warp and compare every lane against a
 * reference computed here; the straddling-access tests pin 8-byte
 * accesses that cross a 4 KB frame (and, on the Intel config, page)
 * boundary.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/bitutil.h"
#include "driver/driver.h"
#include "isa/builder.h"
#include "sim/config.h"
#include "sim/interp.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

using namespace workloads;

GpuConfig
tiny_config()
{
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 2;
    return cfg;
}

/** Runs a kernel writing one value per thread into out[gid]. */
std::vector<std::int32_t>
run_per_thread(const std::function<int(KernelBuilder &)> &value_of,
               std::uint32_t ntid, std::uint32_t nctaid)
{
    KernelBuilder b("per_thread");
    const int out = b.arg_ptr("out");
    const int v = value_of(b);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int base = b.ldarg(out);
    b.st(b.gep(base, gid, 4), v, 4);
    b.exit();

    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    w.buffers.push_back(driver.create_buffer(n * 4));
    run_workload(tiny_config(), driver, w, true, false);

    std::vector<std::int32_t> got(n);
    driver.download(w.buffers[0], got.data(), n * 4);
    return got;
}

TEST(Interp, SpecialRegistersPerLane)
{
    const std::uint32_t ntid = 96, nctaid = 3;

    const auto tid = run_per_thread(
        [](KernelBuilder &b) { return b.sreg(SpecialReg::TidX); }, ntid,
        nctaid);
    const auto cta = run_per_thread(
        [](KernelBuilder &b) { return b.sreg(SpecialReg::CtaIdX); }, ntid,
        nctaid);
    const auto lane = run_per_thread(
        [](KernelBuilder &b) { return b.sreg(SpecialReg::LaneId); }, ntid,
        nctaid);
    const auto nthreads = run_per_thread(
        [](KernelBuilder &b) { return b.sreg(SpecialReg::NThreads); },
        ntid, nctaid);

    for (std::uint32_t i = 0; i < ntid * nctaid; ++i) {
        ASSERT_EQ(tid[i], static_cast<std::int32_t>(i % ntid));
        ASSERT_EQ(cta[i], static_cast<std::int32_t>(i / ntid));
        ASSERT_EQ(lane[i], static_cast<std::int32_t>(i % ntid % kWarpSize));
        ASSERT_EQ(nthreads[i], static_cast<std::int32_t>(ntid * nctaid));
    }
}

TEST(Interp, MadComputesFusedMultiplyAdd)
{
    const auto got = run_per_thread(
        [](KernelBuilder &b) {
            const int gid = b.sreg(SpecialReg::GlobalId);
            const int three = b.mov_imm(3);
            const int seven = b.mov_imm(7);
            return b.mad(gid, three, seven); // gid*3 + 7
        },
        64, 2);
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], static_cast<std::int32_t>(i * 3 + 7));
}

TEST(Interp, MethodCAddressFormation)
{
    // st_bo with disp: out[gid + 2] = gid for gid < n-2, checked via a
    // shifted read-back.
    KernelBuilder b("bo_disp");
    const int out = b.arg_ptr("out");
    const int n_arg = b.arg_scalar("n");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int n = b.ldarg(n_arg);
    const int nm2 = b.alui(Op::Sub, n, 2);
    const int ok = b.setp(Cmp::Lt, gid, nm2);
    b.if_then(ok, false, [&] {
        const int base = b.ldarg(out);
        b.st_bo(base, gid, 4, gid, /*disp=*/8);
    });
    b.exit();

    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 64;
    w.nctaid = 1;
    w.buffers.push_back(driver.create_buffer(64 * 4));
    w.scalars = {0, 64};
    w.scalar_static = {false, false};

    const RunOutcome run =
        run_workload(tiny_config(), driver, w, true, false);
    EXPECT_TRUE(run.result.violations.empty());

    std::vector<std::int32_t> got(64);
    driver.download(w.buffers[0], got.data(), 64 * 4);
    EXPECT_EQ(got[0], 0);
    EXPECT_EQ(got[1], 0);
    for (int i = 2; i < 64; ++i)
        ASSERT_EQ(got[i], i - 2);
}

TEST(Interp, SharedMemoryIsPerWorkgroup)
{
    // Each workgroup writes its CTA id into shared slot 0 and reads it
    // back after a barrier: no cross-workgroup bleed.
    KernelBuilder b("shared_scope");
    const int out = b.arg_ptr("out");
    b.shared_mem(64);
    const int cta = b.sreg(SpecialReg::CtaIdX);
    const int tid = b.sreg(SpecialReg::TidX);
    const int zero = b.mov_imm(0);
    const int is0 = b.setpi(Cmp::Eq, tid, 0);
    b.if_then(is0, false, [&] { b.sts(zero, cta, 4); });
    b.bar();
    const int v = b.lds(zero, 4);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int base = b.ldarg(out);
    b.st(b.gep(base, gid, 4), v, 4);
    b.exit();

    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 64;
    w.nctaid = 4;
    w.buffers.push_back(driver.create_buffer(256 * 4));
    run_workload(tiny_config(), driver, w, true, false);

    std::vector<std::int32_t> got(256);
    driver.download(w.buffers[0], got.data(), 256 * 4);
    for (int i = 0; i < 256; ++i)
        ASSERT_EQ(got[i], i / 64) << "cross-workgroup shared bleed";
}

TEST(Interp, EightByteAccesses)
{
    KernelBuilder b("wide");
    const int out = b.arg_ptr("out");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int big = b.alui(Op::Mul, gid, 1 << 20);
    const int wide = b.alui(Op::Add, big, 5);
    const int base = b.ldarg(out);
    b.st(b.gep(base, gid, 8), wide, 8);
    b.exit();

    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 64;
    w.nctaid = 1;
    w.buffers.push_back(driver.create_buffer(64 * 8));
    const RunOutcome run =
        run_workload(tiny_config(), driver, w, true, false);
    EXPECT_TRUE(run.result.violations.empty());

    std::vector<std::int64_t> got(64);
    driver.download(w.buffers[0], got.data(), 64 * 8);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(got[i], static_cast<std::int64_t>(i) * (1 << 20) + 5);
}

TEST(Interp, DivisionAvoidsTrapOnZero)
{
    // Divide by (gid % 4): lanes with 0 divisor must not crash the
    // simulator; they produce a/1 by convention.
    const auto got = run_per_thread(
        [](KernelBuilder &b) {
            const int gid = b.sreg(SpecialReg::GlobalId);
            const int mod = b.alui(Op::Rem, gid, 4);
            const int hundred = b.mov_imm(100);
            return b.alu(Op::Divi, hundred, mod);
        },
        64, 1);
    for (int i = 0; i < 64; ++i) {
        const int div = i % 4 == 0 ? 1 : i % 4;
        ASSERT_EQ(got[i], 100 / div);
    }
}

// --- Op semantics, one instruction on a hand-built warp -------------------

constexpr int kRegs = 6;  // r0 = a, r1 = b, r2 = c, r3 = destination
constexpr int kPreds = 3;
constexpr int kDest = 3;
constexpr std::int64_t kOldDest = 0x5EED'0000'0000'0007;
constexpr LaneMask kOldPreds[kPreds] = {0x12345678u, 0x9ABCDEF0u,
                                         0x0F0F0F0Fu};

enum class Shape { Full, Divergent, Partial };

const char *
shape_name(Shape s)
{
    switch (s) {
      case Shape::Full: return "full";
      case Shape::Divergent: return "divergent";
      case Shape::Partial: return "partial";
    }
    return "?";
}

/** Operand values: small, negative, zero, large, and shift amounts of
 *  64 or more and below zero. Products stay inside 64 bits. */
constexpr std::int64_t kA[] = {0,    1,          -1,         7,
                               -7,   123456789,  -987654321, 1 << 30,
                               -(1 << 29), 0x7FFF, 42,       -3};
constexpr std::int64_t kB[] = {3,  0,   -2, 64,  65,  -1,  -64, 63,
                               1,  100, 5,  -65, 31,  -7,  2};
constexpr std::int64_t kC[] = {11, -5, 0, 1 << 20, -99};

/**
 * A warp in @p shape: all 32 lanes; the odd lanes of a full warp inside
 * an SSY region; or the 8-lane last warp of a 40-thread workgroup.
 * Registers r0..r2 hold the operand tables, every other register
 * kOldDest, and the predicates kOldPreds.
 */
WarpState
shaped_warp(Shape shape)
{
    WarpState w = shape == Shape::Partial
                      ? WarpState(1, 0, 1, 40, kRegs, kPreds)
                      : WarpState(0, 0, 0, 64, kRegs, kPreds);
    if (shape == Shape::Divergent) {
        SimtEntry ssy;
        ssy.reconv_pc = 1000; // never reached by the one-step program
        ssy.restore_mask = w.active;
        w.simt_stack.push_back(ssy);
        w.active = 0xAAAAAAAAu;
    }
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        w.set_reg(lane, 0, kA[lane % std::size(kA)]);
        w.set_reg(lane, 1, kB[lane % std::size(kB)]);
        w.set_reg(lane, 2, kC[lane % std::size(kC)]);
        for (int r = 3; r < kRegs; ++r)
            w.set_reg(lane, r, kOldDest + r);
        for (int p = 0; p < kPreds; ++p)
            w.set_pred(lane, p, (kOldPreds[p] >> lane) & 1);
    }
    return w;
}

/** Register file snapshot [reg][lane]. */
std::vector<std::vector<std::int64_t>>
snapshot(const WarpState &w)
{
    std::vector<std::vector<std::int64_t>> regs(
        kRegs, std::vector<std::int64_t>(kWarpSize));
    for (int r = 0; r < kRegs; ++r)
        for (unsigned lane = 0; lane < kWarpSize; ++lane)
            regs[r][lane] = w.reg(lane, r);
    return regs;
}

/** Steps @p in once on @p warp (the program is `in; exit`), with
 *  @p shared as the workgroup's scratchpad (none when null). */
StepResult
step_one(WarpState &warp, const Instr &in,
         std::vector<std::uint8_t> *shared = nullptr)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    LaunchState launch;
    launch.ntid = 64;
    launch.nctaid = 1;
    launch.program.name = "one_op";
    launch.program.num_regs = kRegs;
    launch.program.num_preds = kPreds;
    Instr exit_in;
    exit_in.op = Op::Exit;
    launch.program.code = {in, exit_in};
    WarpInterpreter interp(launch, driver);
    std::vector<std::uint8_t> none;
    return interp.step(warp, shared != nullptr ? *shared : none);
}

/**
 * Steps @p in on a warp of every shape. Active lanes of register rd
 * must equal want(a, b, c) of that lane's ra, rb and rc values (0 for
 * an unused source), where b is the immediate when rb is unused; every
 * other register lane and every predicate bit must keep its value.
 */
template <typename Want>
void
expect_lanes(const Instr &in, StepKind kind, Want want)
{
    for (const Shape shape : {Shape::Full, Shape::Divergent,
                              Shape::Partial}) {
        SCOPED_TRACE(std::string(op_name(in.op)) + " " +
                     shape_name(shape) + " rd=r" + std::to_string(in.rd) +
                     " ra=r" + std::to_string(in.ra) + " rb=r" +
                     std::to_string(in.rb) + " imm=" +
                     std::to_string(in.imm));
        WarpState w = shaped_warp(shape);
        const LaneMask active = w.active;
        const auto before = snapshot(w);
        const StepResult r = step_one(w, in);
        EXPECT_EQ(r.kind, kind);
        EXPECT_EQ(w.pc, 1);
        EXPECT_EQ(w.active, active);
        for (int reg = 0; reg < kRegs; ++reg) {
            for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                std::int64_t expect = before[reg][lane];
                if (reg == in.rd && ((active >> lane) & 1)) {
                    const auto src = [&](int r) {
                        return r == kNoReg ? 0 : before[r][lane];
                    };
                    const std::int64_t b =
                        in.rb == kNoReg ? in.imm : before[in.rb][lane];
                    expect = want(src(in.ra), b, src(in.rc));
                }
                ASSERT_EQ(w.reg(lane, reg), expect)
                    << "r" << reg << " lane " << lane;
            }
        }
        for (int p = 0; p < kPreds; ++p)
            EXPECT_EQ(w.pred_mask(p), kOldPreds[p]) << "p" << p;
    }
}

/** Reference semantics of the two-operand ALU ops. A shift by 64 or
 *  more yields 0 in both directions; a negative amount shifts by its
 *  low six bits; Shr is arithmetic; division by zero divides by 1. */
std::int64_t
ref_alu(Op op, std::int64_t a, std::int64_t b)
{
    const unsigned sh = static_cast<unsigned>(b & 63);
    switch (op) {
      case Op::Add: return a + b;
      case Op::Sub: return a - b;
      case Op::Mul: return a * b;
      case Op::Min: return a < b ? a : b;
      case Op::Max: return a > b ? a : b;
      case Op::And: return a & b;
      case Op::Or: return a | b;
      case Op::Xor: return a ^ b;
      case Op::Shl:
        return b >= 64 ? 0
                       : static_cast<std::int64_t>(
                             static_cast<std::uint64_t>(a) << sh);
      case Op::Shr: return b >= 64 ? 0 : a >> sh;
      case Op::Divi: return b == 0 ? a : a / b;
      case Op::Rem: return b == 0 ? 0 : a % b;
      default: break;
    }
    ADD_FAILURE() << "no reference for " << op_name(op);
    return 0;
}

/** Immediates: plain, zero (Divi/Rem by 0), a shift of 64 and a
 *  negative shift. */
constexpr std::int64_t kImms[] = {3, 0, 64, -1, -70};

TEST(InterpOps, TwoOperandAluOpsPerLane)
{
    for (const Op op : {Op::Add, Op::Sub, Op::Mul, Op::Min, Op::Max,
                        Op::And, Op::Or, Op::Xor, Op::Shl, Op::Shr,
                        Op::Divi, Op::Rem}) {
        const StepKind kind = op == Op::Divi || op == Op::Rem
                                  ? StepKind::Sfu
                                  : StepKind::Alu;
        const auto want = [op](std::int64_t a, std::int64_t b,
                               std::int64_t) { return ref_alu(op, a, b); };
        // Register second operand, into a fresh register and in place.
        for (const int rd : {kDest, 0}) {
            Instr in;
            in.op = op;
            in.rd = rd;
            in.ra = 0;
            in.rb = 1;
            expect_lanes(in, kind, want);
        }
        for (const std::int64_t imm : kImms) {
            Instr in;
            in.op = op;
            in.rd = kDest;
            in.ra = 0;
            in.imm = imm;
            expect_lanes(in, kind, want);
        }
    }
}

TEST(InterpOps, DivisionOfMinByMinusOneWraps)
{
    // INT64_MIN / -1 does not fit: the quotient wraps to INT64_MIN and
    // the remainder is 0, next to the divide-by-zero rule (a / 1). The
    // host's idiv would trap on it and end the process.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const std::int64_t dividends[] = {kMin, kMax, -9, 0, 7, kMin + 1};
    const std::int64_t divisors[] = {-1, -1, 0, 3, -1, kMin, 2};
    const auto want = [&](Op op, std::int64_t a, std::int64_t b) {
        if (b == -1)
            return op == Op::Divi ? (a == kMin ? kMin : -a)
                                  : std::int64_t{0};
        if (b == 0)
            return op == Op::Divi ? a : std::int64_t{0};
        return op == Op::Divi ? a / b : a % b;
    };
    for (const Op op : {Op::Divi, Op::Rem}) {
        for (const bool imm : {false, true}) {
            SCOPED_TRACE(std::string(op_name(op)) + (imm ? " imm" : " reg"));
            WarpState w = shaped_warp(Shape::Full);
            for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                w.set_reg(lane, 0, dividends[lane % std::size(dividends)]);
                w.set_reg(lane, 1, divisors[lane % std::size(divisors)]);
            }
            Instr in;
            in.op = op;
            in.rd = kDest;
            in.ra = 0;
            if (imm)
                in.imm = -1;
            else
                in.rb = 1;
            EXPECT_EQ(step_one(w, in).kind, StepKind::Sfu);
            for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                const std::int64_t a = dividends[lane % std::size(dividends)];
                const std::int64_t b =
                    imm ? -1 : divisors[lane % std::size(divisors)];
                ASSERT_EQ(w.reg(lane, kDest), want(op, a, b))
                    << "lane " << lane;
            }
        }
    }
}

TEST(InterpOps, SharedAccessesOfEverySizeWrapAndClip)
{
    // Lds/Sts of 1, 2, 4 and 8 bytes on a 100-byte scratchpad. The lane
    // addresses include ones at and far beyond its size (they wrap
    // modulo the size) and ones whose access runs past its end (cut
    // short there: a load reads the bytes up to the end, zero-extended;
    // a store writes them). Lanes store in ascending order.
    constexpr std::size_t kBytes = 100;
    const std::uint64_t addrs[] = {0,   3,   17,  96,  97,  98,   99,
                                   100, 105, 199, 250, 1001, ~0ull, 64};
    std::vector<std::uint8_t> init(kBytes);
    for (std::size_t i = 0; i < kBytes; ++i)
        init[i] = static_cast<std::uint8_t>(i * 29 + 5);
    const auto addr_of = [&](unsigned lane) {
        return addrs[lane % std::size(addrs)];
    };
    const auto value_of = [](unsigned lane) {
        return static_cast<std::int64_t>(0x8070'6050'4030'2010ull *
                                         (lane + 1));
    };
    for (const std::uint8_t size : {1, 2, 4, 8}) {
        for (const Shape shape : {Shape::Full, Shape::Divergent,
                                  Shape::Partial}) {
            SCOPED_TRACE("size " + std::to_string(size) + " " +
                         shape_name(shape));
            WarpState w = shaped_warp(shape);
            const LaneMask active = w.active;
            for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                w.set_reg(lane, 0, static_cast<std::int64_t>(addr_of(lane)));
                w.set_reg(lane, 1, value_of(lane));
            }

            // Store, then check every scratchpad byte.
            std::vector<std::uint8_t> shared = init;
            std::vector<std::uint8_t> want = init;
            for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                if (((active >> lane) & 1) == 0)
                    continue;
                const std::uint64_t at = addr_of(lane) % kBytes;
                const std::uint64_t v =
                    static_cast<std::uint64_t>(value_of(lane));
                for (std::uint64_t i = 0; i < size && at + i < kBytes; ++i)
                    want[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
            }
            Instr sts;
            sts.op = Op::Sts;
            sts.ra = 0;
            sts.rb = 1;
            sts.size = size;
            EXPECT_EQ(step_one(w, sts, &shared).kind, StepKind::SharedMem);
            EXPECT_EQ(shared, want);

            // Load into a fresh register and in place over the address.
            for (const int rd : {kDest, 0}) {
                WarpState l = w;
                l.pc = 0;
                const auto before = snapshot(l);
                Instr lds;
                lds.op = Op::Lds;
                lds.rd = rd;
                lds.ra = 0;
                lds.size = size;
                EXPECT_EQ(step_one(l, lds, &shared).kind,
                          StepKind::SharedMem);
                for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                    std::int64_t expect = before[rd][lane];
                    if ((active >> lane) & 1) {
                        const std::uint64_t at = addr_of(lane) % kBytes;
                        std::uint64_t v = 0;
                        for (std::uint64_t i = 0;
                             i < size && at + i < kBytes; ++i)
                            v |= std::uint64_t{shared[at + i]} << (8 * i);
                        expect = static_cast<std::int64_t>(v);
                    }
                    ASSERT_EQ(l.reg(lane, rd), expect)
                        << "r" << rd << " lane " << lane;
                }
            }
        }
    }

    // An empty scratchpad: no lane reads or writes anything.
    WarpState w = shaped_warp(Shape::Full);
    const auto before = snapshot(w);
    std::vector<std::uint8_t> empty;
    Instr lds;
    lds.op = Op::Lds;
    lds.rd = kDest;
    lds.ra = 0;
    lds.size = 4;
    EXPECT_EQ(step_one(w, lds, &empty).kind, StepKind::SharedMem);
    EXPECT_EQ(snapshot(w), before);
    EXPECT_EQ(w.pc, 1);
}

TEST(InterpOps, MovMadAndGepPerLane)
{
    // Mov copies ra, or the immediate when ra is unused.
    Instr mov;
    mov.op = Op::Mov;
    mov.rd = kDest;
    mov.ra = 1;
    expect_lanes(mov, StepKind::Alu, [](std::int64_t a, std::int64_t,
                                        std::int64_t) { return a; });
    mov.ra = kNoReg;
    mov.imm = -123456;
    expect_lanes(mov, StepKind::Alu,
                 [](std::int64_t, std::int64_t, std::int64_t) {
                     return std::int64_t{-123456};
                 });

    // Mad and Gep take no immediate second operand.
    Instr mad;
    mad.op = Op::Mad;
    mad.rd = kDest;
    mad.ra = 0;
    mad.rb = 1;
    mad.rc = 2;
    expect_lanes(mad, StepKind::Alu,
                 [](std::int64_t a, std::int64_t b, std::int64_t c) {
                     return a * b + c;
                 });

    Instr gep;
    gep.op = Op::Gep;
    gep.rd = kDest;
    gep.ra = 0;
    gep.rb = 1;
    gep.scale = 8;
    gep.disp = -24;
    expect_lanes(gep, StepKind::Alu,
                 [](std::int64_t a, std::int64_t b, std::int64_t) {
                     return a + b * 8 - 24;
                 });
}

TEST(InterpOps, SetpComparesWriteOnlyActivePredicateBits)
{
    const auto holds = [](Cmp cmp, std::int64_t a, std::int64_t b) {
        switch (cmp) {
          case Cmp::Eq: return a == b;
          case Cmp::Ne: return a != b;
          case Cmp::Lt: return a < b;
          case Cmp::Le: return a <= b;
          case Cmp::Gt: return a > b;
          case Cmp::Ge: return a >= b;
        }
        return false;
    };
    for (const Cmp cmp : {Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt,
                          Cmp::Ge}) {
        std::vector<Instr> forms;
        Instr reg_form;
        reg_form.op = Op::Setp;
        reg_form.cmp = cmp;
        reg_form.rd = 1; // predicate p1
        reg_form.ra = 0;
        reg_form.rb = 1;
        forms.push_back(reg_form);
        for (const std::int64_t imm : {std::int64_t{7}, std::int64_t{-1},
                                       std::int64_t{0}}) {
            Instr imm_form = reg_form;
            imm_form.rb = kNoReg;
            imm_form.imm = imm;
            forms.push_back(imm_form);
        }
        for (const Instr &in : forms) {
            for (const Shape shape : {Shape::Full, Shape::Divergent,
                                      Shape::Partial}) {
                SCOPED_TRACE("cmp " + std::to_string(static_cast<int>(cmp)) +
                             " " + shape_name(shape) +
                             (in.rb == kNoReg
                                  ? " imm " + std::to_string(in.imm)
                                  : " reg"));
                WarpState w = shaped_warp(shape);
                const LaneMask active = w.active;
                const auto before = snapshot(w);
                const StepResult r = step_one(w, in);
                EXPECT_EQ(r.kind, StepKind::Alu);
                EXPECT_EQ(w.pc, 1);
                LaneMask want = kOldPreds[1] & ~active;
                for (unsigned lane = 0; lane < kWarpSize; ++lane) {
                    const std::int64_t b =
                        in.rb == kNoReg ? in.imm : before[1][lane];
                    if (((active >> lane) & 1) &&
                        holds(cmp, before[0][lane], b))
                        want |= LaneMask{1} << lane;
                }
                EXPECT_EQ(w.pred_mask(1), want);
                EXPECT_EQ(w.pred_mask(0), kOldPreds[0]);
                EXPECT_EQ(w.pred_mask(2), kOldPreds[2]);
                EXPECT_EQ(snapshot(w), before);
            }
        }
    }
}

// --- Accesses that straddle a 4 KB frame or page boundary ----------------

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001B3ull;
    }
    return h;
}

/** What a straddle run leaves behind. */
struct StraddleRun
{
    std::vector<std::uint8_t> out;
    std::map<std::string, std::uint64_t> stats;
    std::size_t violations = 0;
    bool aborted = false;
};

constexpr std::uint32_t kStraddleThreads = 128; // 2 workgroups x 64
constexpr std::uint32_t kStraddleLane = 10; // lane 10 of warp 0 straddles
constexpr std::uint32_t kInThreads = 120;   // threads 120.. read past `in`

/**
 * out[t] = in[t] ^ t, 8 bytes each, with thread t at byte
 * skew + 8t of each buffer. The skews put thread kStraddleLane's access
 * across the next 4 KB boundary of each buffer, and `in` ends after
 * thread kInThreads - 1, so the last warp's loads are partially
 * squashed by the shield.
 */
StraddleRun
run_straddle(const GpuConfig &cfg)
{
    KernelBuilder b("straddle");
    const int in_arg = b.arg_ptr("in");
    const int out_arg = b.arg_ptr("out");
    const int in_skew_arg = b.arg_scalar("in_skew");
    const int out_skew_arg = b.arg_scalar("out_skew");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int in_at = b.gep(b.ldarg(in_arg), gid, 8);
    const int v = b.ld(b.alu(Op::Add, in_at, b.ldarg(in_skew_arg)), 8);
    const int r = b.alu(Op::Xor, v, gid);
    const int out_at = b.gep(b.ldarg(out_arg), gid, 8);
    b.st(b.alu(Op::Add, out_at, b.ldarg(out_skew_arg)), r, 8);
    b.exit();

    GpuDevice dev(cfg.mem.page_size);
    Driver driver(dev);
    // Place thread kStraddleLane 4 bytes below the next 4 KB boundary.
    const auto skew_for = [&](std::uint64_t base) {
        const std::uint64_t to_boundary = 4096 - base % 4096;
        return (to_boundary + 4096 - 8 * kStraddleLane - 4) % 4096;
    };
    // Buffers are 512 B aligned and packed, so each one starts where
    // the previous one's rounded-up size ends: the skews (and `in`'s
    // exact size) can be chosen before allocating.
    const BufferHandle probe = driver.create_buffer(512);
    const VAddr in_base = driver.region(probe).base + 512;
    const std::uint64_t in_skew = skew_for(in_base);
    const std::uint64_t in_bytes = in_skew + 8 * kInThreads;
    const VAddr out_base = in_base + align_up(in_bytes, 512);
    const std::uint64_t out_skew = skew_for(out_base);
    const std::uint64_t out_bytes = out_skew + 8 * kStraddleThreads;
    const BufferHandle in = driver.create_buffer(in_bytes);
    const BufferHandle out = driver.create_buffer(out_bytes);
    EXPECT_EQ(driver.region(in).base, in_base);
    EXPECT_EQ(driver.region(out).base, out_base);

    std::vector<std::uint8_t> init(in_bytes);
    for (std::size_t i = 0; i < init.size(); ++i)
        init[i] = static_cast<std::uint8_t>(i * 37 + 11);
    driver.upload(in, init.data(), init.size());

    workloads::WorkloadInstance w;
    w.program = b.finish();
    w.ntid = 64;
    w.nctaid = kStraddleThreads / 64;
    w.buffers = {in, out};
    w.scalars = {0, 0, static_cast<std::int64_t>(in_skew),
                 static_cast<std::int64_t>(out_skew)};
    w.scalar_static = {false, false, false, false};
    const workloads::RunOutcome o =
        workloads::run_workload(cfg, driver, w, true, false);

    StraddleRun run;
    run.out.resize(out_bytes);
    driver.download(out, run.out.data(), out_bytes);
    run.stats = o.result.stats.counters();
    run.violations = o.result.violations.size();
    run.aborted = o.result.aborted;

    // Semantic spot checks; the pinned hash covers every byte.
    std::int64_t straddler = 0;
    std::memcpy(&straddler, init.data() + in_skew + 8 * kStraddleLane, 8);
    std::int64_t got = 0;
    std::memcpy(&got, run.out.data() + out_skew + 8 * kStraddleLane, 8);
    EXPECT_EQ(got, straddler ^ kStraddleLane) << "straddling lane";
    for (std::uint32_t t = kInThreads; t < kStraddleThreads; ++t) {
        std::memcpy(&got, run.out.data() + out_skew + 8 * t, 8);
        EXPECT_EQ(got, static_cast<std::int64_t>(t))
            << "squashed load of thread " << t << " must read zero";
    }
    return run;
}

// Captured before apply_mem translated once per page and looked a
// frame up once per 4 KB frame. Both configs compute the same bytes;
// on the Intel config's 4 KB pages the straddling lanes also cross a
// page.
constexpr std::uint64_t kStraddleOutHash = 0x77b6bc1d74504395ull;

std::map<std::string, std::uint64_t>
straddle_stats()
{
    return {{"checks", 8},      {"instructions", 52}, {"loads", 4},
            {"rbt_refills", 4}, {"stores", 4},        {"transactions", 24},
            {"violations", 1}};
}

TEST(Interp, StraddlingAccessesOnNvidiaFrames)
{
    GpuConfig cfg = tiny_config();
    const StraddleRun run = run_straddle(cfg);
    EXPECT_FALSE(run.aborted);
    EXPECT_EQ(run.violations, 1u);
    EXPECT_EQ(fnv1a(run.out), kStraddleOutHash)
        << std::hex << fnv1a(run.out);
    EXPECT_EQ(run.stats, straddle_stats());
}

TEST(Interp, StraddlingAccessesOnIntelPages)
{
    GpuConfig cfg = intel_config();
    cfg.num_cores = 2;
    ASSERT_EQ(cfg.mem.page_size, kPageSize4K);
    const StraddleRun run = run_straddle(cfg);
    EXPECT_FALSE(run.aborted);
    EXPECT_EQ(run.violations, 1u);
    EXPECT_EQ(fnv1a(run.out), kStraddleOutHash)
        << std::hex << fnv1a(run.out);
    EXPECT_EQ(run.stats, straddle_stats());
}

} // namespace
} // namespace gpushield
