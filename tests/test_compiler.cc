/**
 * @file
 * Unit tests for the static bounds analysis (§5.3) and the BAT.
 */

#include <gtest/gtest.h>

#include "compiler/static_analysis.h"
#include "driver/driver.h"
#include "isa/builder.h"
#include "workloads/kernels.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

using workloads::PatternParams;

StaticLaunchInfo
info_for(const KernelProgram &prog, std::uint32_t ntid, std::uint32_t nctaid,
         std::uint64_t buf_bytes)
{
    StaticLaunchInfo info;
    info.ntid = ntid;
    info.nctaid = nctaid;
    info.arg_buffer_sizes.assign(prog.args.size(), 0);
    info.arg_buffer_pow2.assign(prog.args.size(), false);
    info.scalar_values.assign(prog.args.size(), std::nullopt);
    for (std::size_t a = 0; a < prog.args.size(); ++a) {
        if (prog.args[a].is_pointer)
            info.arg_buffer_sizes[a] = buf_bytes;
    }
    return info;
}

TEST(StaticAnalysis, StreamingKernelFullyProven)
{
    PatternParams p;
    p.name = "vecadd";
    p.inputs = 2;
    const KernelProgram prog = workloads::make_streaming(p);

    // Buffers exactly sized to the grid: every access is provable.
    const auto info = info_for(prog, 256, 4, 256 * 4 * 4);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);

    ASSERT_FALSE(bat.entries.empty());
    for (const BatEntry &e : bat.entries) {
        EXPECT_EQ(e.verdict, Verdict::InBounds)
            << "pc " << e.pc << " not proven";
        EXPECT_TRUE(e.offsets_known);
    }
    EXPECT_DOUBLE_EQ(bat.static_safe_fraction(), 1.0);
    // All pointers become Type 1.
    for (const auto &[ref, type] : bat.pointer_types) {
        if (ref.kind == BaseKind::Arg) {
            EXPECT_EQ(type, PtrTypeRec::Unprotected);
        }
    }
}

TEST(StaticAnalysis, UndersizedBufferNotProven)
{
    PatternParams p;
    p.name = "vecadd";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);

    // Buffer holds half the grid: accesses may escape -> Unknown.
    const auto info = info_for(prog, 256, 4, 256 * 4 * 4 / 2);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    for (const BatEntry &e : bat.entries)
        EXPECT_EQ(e.verdict, Verdict::Unknown);
}

TEST(StaticAnalysis, IndirectAccessStaysUnknown)
{
    PatternParams p;
    p.name = "gather";
    const KernelProgram prog = workloads::make_indirect(p);
    const auto info = info_for(prog, 256, 4, 256 * 4 * 4);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);

    // The data access through the loaded index must stay Unknown (the
    // graph benchmarks of Fig. 17); the index & out accesses are affine
    // and provable.
    bool any_unknown = false, any_proven = false;
    for (const BatEntry &e : bat.entries) {
        any_unknown |= e.verdict == Verdict::Unknown;
        any_proven |= e.verdict == Verdict::InBounds;
    }
    EXPECT_TRUE(any_unknown);
    EXPECT_TRUE(any_proven);
}

TEST(StaticAnalysis, DefiniteConstantOverflowReported)
{
    KernelBuilder b("bad");
    const int a = b.arg_ptr("a");
    const int base = b.ldarg(a);
    const int idx = b.mov_imm(100); // constant, provably outside
    const int addr = b.gep(base, idx, 4);
    b.st(addr, idx, 4);
    b.exit();
    const KernelProgram prog = b.finish();

    auto info = info_for(prog, 1, 1, 64); // 16 elements
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 1u);
    EXPECT_EQ(bat.entries[0].verdict, Verdict::OutOfBounds);
    EXPECT_EQ(bat.static_errors().size(), 1u);
}

TEST(StaticAnalysis, GuardRefinementProvesGuardedAccess)
{
    // if (gid < n) out[gid] = ... with n a *static* scalar smaller than
    // the buffer: the §6.4 pattern GPUShield can subsume.
    PatternParams p;
    p.name = "guarded";
    p.inputs = 1;
    p.tid_guard = true;
    const KernelProgram prog = workloads::make_streaming(p);

    // Grid is 2x the buffer, but the guard bound (static 1024 elements)
    // fits the 1024-element buffer.
    auto info = info_for(prog, 256, 8, 1024 * 4);
    const int scalar_arg = static_cast<int>(prog.args.size()) - 1;
    info.scalar_values[scalar_arg] = 1024;
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    for (const BatEntry &e : bat.entries)
        EXPECT_EQ(e.verdict, Verdict::InBounds);
}

TEST(StaticAnalysis, RuntimeGuardBoundStaysUnknown)
{
    PatternParams p;
    p.name = "guarded_rt";
    p.inputs = 1;
    p.tid_guard = true;
    const KernelProgram prog = workloads::make_streaming(p);

    // The guard bound comes from argv-like runtime input (Fig. 5's D):
    // nothing is provable.
    auto info = info_for(prog, 256, 8, 1024 * 4);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    for (const BatEntry &e : bat.entries)
        EXPECT_EQ(e.verdict, Verdict::Unknown);
}

TEST(StaticAnalysis, LoopInductionRangeProven)
{
    // for (i = 0; i < 8; ++i) out[gid*8 + i] — provable with an
    // 8x-grid-sized buffer.
    KernelBuilder b("loopy");
    const int out = b.arg_ptr("out");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int base = b.ldarg(out);
    const int g8 = b.alui(Op::Mul, gid, 8);
    b.loop_n(8, [&](int i) {
        const int idx = b.alu(Op::Add, g8, i);
        const int addr = b.gep(base, idx, 4);
        b.st(addr, i, 4);
    });
    b.exit();
    const KernelProgram prog = b.finish();

    auto info = info_for(prog, 64, 2, 64 * 2 * 8 * 4);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 1u);
    EXPECT_EQ(bat.entries[0].verdict, Verdict::InBounds);

    // One element short: not provable.
    auto tight = info_for(prog, 64, 2, 64 * 2 * 8 * 4 - 4);
    const BoundsAnalysisTable bat2 = analyze_kernel(prog, tight);
    EXPECT_EQ(bat2.entries[0].verdict, Verdict::Unknown);
}

TEST(StaticAnalysis, Type3ForBaseOffsetPow2Buffers)
{
    PatternParams p;
    p.name = "send_style";
    p.inputs = 1;
    p.base_offset = true;
    const KernelProgram prog = workloads::make_streaming(p);

    auto info = info_for(prog, 256, 4, 256 * 4 * 4 / 2); // not provable
    for (std::size_t a = 0; a < prog.args.size(); ++a) {
        if (prog.args[a].is_pointer)
            info.arg_buffer_pow2[a] = true;
    }
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);

    for (const auto &[ref, type] : bat.pointer_types) {
        if (ref.kind == BaseKind::Arg) {
            EXPECT_EQ(type, PtrTypeRec::SizedWindow);
        }
    }
}

TEST(StaticAnalysis, LocalVariablesGetEntries)
{
    PatternParams p;
    p.name = "locals";
    p.inner_iters = 4;
    const KernelProgram prog = workloads::make_local_array(p);
    auto info = info_for(prog, 64, 2, 64 * 2 * 4);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);

    bool saw_local = false;
    for (const BatEntry &e : bat.entries)
        saw_local |= e.base.kind == BaseKind::Local;
    EXPECT_TRUE(saw_local);
    EXPECT_TRUE(bat.pointer_types.count(BaseRef{BaseKind::Local, 0}));
}

TEST(StaticAnalysis, HeapAlwaysRuntimeChecked)
{
    PatternParams p;
    p.name = "heapy";
    const KernelProgram prog = workloads::make_heap(p);
    auto info = info_for(prog, 32, 1, 32 * 4);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    const auto it =
        bat.pointer_types.find(BaseRef{BaseKind::Heap, -1});
    ASSERT_NE(it, bat.pointer_types.end());
    EXPECT_EQ(it->second, PtrTypeRec::TaggedId);
}

TEST(StaticAnalysis, LocalSizeOverflowNotCertified)
{
    // elem_size * elems * threads wraps uint64: the wrapped size is
    // garbage and must not certify anything InBounds. Pre-fix the
    // product wrapped to 2^33 and slot 0 was marked provably safe.
    KernelBuilder b("hugelocal");
    const int l = b.local("buf", 2, 0x80000001u); // per-thread 2^32+2 B
    const int lp = b.ldloc(l);
    const int zero = b.mov_imm(0);
    const int addr = b.gep(lp, zero, 1);
    b.st(addr, zero, 1);
    b.exit();
    const KernelProgram prog = b.finish();

    // 2^32 threads: total size = (2^32+2) * 2^32 overflows uint64.
    const auto info = info_for(prog, 1u << 16, 1u << 16, 0);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 1u);
    EXPECT_NE(bat.entries[0].verdict, Verdict::InBounds);
    EXPECT_TRUE(bat.static_errors().empty());
}

TEST(StaticAnalysis, GuardKilledByReassignmentInRegion)
{
    // if (x < 4) { x = 1000; out[x] = x; } — the guard said nothing
    // about the reassigned value, so the refinement must die. Pre-fix
    // the store was clamped to x <= 3 and certified InBounds.
    KernelBuilder b("reassign");
    const int a = b.arg_ptr("out");
    const int base = b.ldarg(a);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int x = b.reg();
    b.mov(x, gid);
    const int p = b.setpi(Cmp::Lt, x, 4);
    b.if_then(p, false, [&] {
        const int big = b.mov_imm(1000);
        b.mov(x, big);
        const int addr = b.gep(base, x, 4);
        b.st(addr, x, 4);
    });
    b.exit();
    const KernelProgram prog = b.finish();

    const auto info = info_for(prog, 256, 4, 16); // 4 elements
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 1u);
    EXPECT_NE(bat.entries[0].verdict, Verdict::InBounds);
}

TEST(StaticAnalysis, GuardBoundSnapshottedAtCompare)
{
    // p = (gid < n) with n == 1024, then n is rewritten to 4 before
    // the branch. The predicate still means gid < 1024; refining with
    // the rewritten bound would certify a 4-element buffer. Pre-fix
    // the bound was resolved at the branch and the store passed.
    KernelBuilder b("snapshot");
    const int a = b.arg_ptr("out");
    const int base = b.ldarg(a);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int n = b.mov_imm(1024);
    const int p = b.setp(Cmp::Lt, gid, n);
    const int small = b.mov_imm(4);
    b.mov(n, small);
    b.if_then(p, false, [&] {
        const int addr = b.gep(base, gid, 4);
        b.st(addr, gid, 4);
    });
    b.exit();
    const KernelProgram prog = b.finish();

    const auto info = info_for(prog, 256, 4, 16); // 4 elements
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 1u);
    EXPECT_NE(bat.entries[0].verdict, Verdict::InBounds);
}

TEST(StaticAnalysis, AccessBeforeGuardNotRefined)
{
    // The refinement region starts at the guarding branch: an access
    // *before* the branch sees the unrefined range. Pre-fix the guard
    // applied to every pc up to the reconvergence point.
    KernelBuilder b("preguard");
    const int a = b.arg_ptr("out");
    const int base = b.ldarg(a);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int p = b.setpi(Cmp::Lt, gid, 4);
    const int addr = b.gep(base, gid, 4);
    b.st(addr, gid, 4); // unguarded: gid spans the whole grid
    b.if_then(p, false, [&] {
        const int addr2 = b.gep(base, gid, 4);
        b.st(addr2, gid, 4); // guarded: gid <= 3
    });
    b.exit();
    const KernelProgram prog = b.finish();

    const auto info = info_for(prog, 256, 4, 16); // 4 elements
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 2u);
    EXPECT_NE(bat.entries[0].verdict, Verdict::InBounds);
    EXPECT_EQ(bat.entries[1].verdict, Verdict::InBounds);
}

TEST(StaticAnalysis, InclusiveAndLowerGuardsRefine)
{
    // x <= 3 proves a 4-element buffer; x >= 1 proves a [-1] access.
    KernelBuilder b("lege");
    const int a = b.arg_ptr("out");
    const int base = b.ldarg(a);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int ple = b.setpi(Cmp::Le, gid, 3);
    b.if_then(ple, false, [&] {
        const int addr = b.gep(base, gid, 4);
        b.st(addr, gid, 4);
    });
    const int pge = b.setpi(Cmp::Ge, gid, 1);
    b.if_then(pge, false, [&] {
        const int addr = b.gep(base, gid, 4, -4); // out[gid - 1]
        b.st(addr, gid, 4);
    });
    b.exit();
    const KernelProgram prog = b.finish();

    // 4 threads, 4-element buffer: the Le store needs hi <= 3; the Ge
    // store needs lo >= 1 to keep offset -4 off the table.
    const auto info = info_for(prog, 4, 1, 16);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 2u);
    EXPECT_EQ(bat.entries[0].verdict, Verdict::InBounds);
    EXPECT_EQ(bat.entries[1].verdict, Verdict::InBounds);
}

TEST(StaticAnalysis, LoopCarriedPointerWalkNotProven)
{
    // ptr advances every iteration; its straight-line (first-iteration)
    // value proves nothing about later trips. Pre-fix the load was
    // certified InBounds against a buffer it walks straight past.
    KernelBuilder b("ptrwalk");
    const int a = b.arg_ptr("in");
    const int base = b.ldarg(a);
    const int ptr = b.reg();
    b.mov(ptr, base);
    b.loop_n(4, [&](int) {
        b.ld(ptr, 4);
        const int next = b.alui(Op::Add, ptr, 4);
        b.mov(ptr, next);
    });
    b.exit();
    const KernelProgram prog = b.finish();

    const auto info = info_for(prog, 1, 1, 4); // 1 element
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 1u);
    EXPECT_NE(bat.entries[0].verdict, Verdict::InBounds);
}

TEST(StaticAnalysis, PostLoopInductionValueNotInLoopRange)
{
    // After `for (i = 0; i < 8; ++i)` the register holds 8, one past
    // the trip range. Pre-fix the loop range [0,7] applied globally and
    // certified out[i] against an 8-element buffer.
    KernelBuilder b("postloop");
    const int a = b.arg_ptr("out");
    const int base = b.ldarg(a);
    int ivar = kNoReg;
    b.loop_n(8, [&](int i) {
        ivar = i;
        const int addr = b.gep(base, i, 4);
        b.st(addr, i, 4);
    });
    const int addr2 = b.gep(base, ivar, 4);
    b.st(addr2, ivar, 4); // i == 8 here: one past the buffer
    b.exit();
    const KernelProgram prog = b.finish();

    const auto info = info_for(prog, 32, 1, 32); // 8 elements
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 2u);
    EXPECT_EQ(bat.entries[0].verdict, Verdict::InBounds);
    EXPECT_NE(bat.entries[1].verdict, Verdict::InBounds);
}

TEST(StaticAnalysis, SetpDoesNotClobberAliasedRegister)
{
    // Predicate indices alias general-register numbering. An unrelated
    // setp writing predicate 0 must not wipe register 0 (here: the
    // guard bound) from the straight-line evaluation. Pre-fix this
    // left the guarded store unproven.
    KernelBuilder b("alias");
    const int n = b.mov_imm(4); // register 0
    const int a = b.arg_ptr("out");
    const int base = b.ldarg(a);
    const int gid = b.sreg(SpecialReg::GlobalId);
    b.setpi(Cmp::Ge, gid, 0); // predicate 0: aliases n's index
    const int p = b.setp(Cmp::Lt, gid, n);
    b.if_then(p, false, [&] {
        const int addr = b.gep(base, gid, 4);
        b.st(addr, gid, 4);
    });
    b.exit();
    const KernelProgram prog = b.finish();

    const auto info = info_for(prog, 256, 4, 16); // 4 elements
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 1u);
    EXPECT_EQ(bat.entries[0].verdict, Verdict::InBounds);
}

TEST(StaticAnalysis, ShiftedIndexProven)
{
    // A[gid >> 3]: the shift narrows gid's range eightfold, so 1,024
    // threads store into the first 128 elements.
    KernelBuilder b("shifted");
    const int a = b.arg_ptr("A");
    const int base = b.ldarg(a);
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int idx = b.alui(Op::Shr, gid, 3);
    b.st(b.gep(base, idx, 4), gid, 4);
    b.exit();
    const KernelProgram prog = b.finish();

    const auto info = info_for(prog, 256, 4, 4096); // 1024 elements
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 1u);
    EXPECT_EQ(bat.entries[0].verdict, Verdict::InBounds);
    EXPECT_EQ(bat.entries[0].off_lo, 0);
    EXPECT_EQ(bat.entries[0].off_end, 512);
}

TEST(StaticAnalysis, MadTripCountBoundsLoop)
{
    // for (i = 0; i < n * 2 + 1; ++i) out[i] with n = 7: the trip
    // bound is a mad, which the pre-walk evaluates like the access
    // walk does, so the loop is counted and the store proven.
    KernelBuilder b("madtrip");
    const int a = b.arg_ptr("out");
    const int base = b.ldarg(a);
    const int count = b.mad(b.mov_imm(7), b.mov_imm(2), b.mov_imm(1));
    b.loop_count(count, [&](int i) { b.st(b.gep(base, i, 4), i, 4); });
    b.exit();
    const KernelProgram prog = b.finish();

    const auto info = info_for(prog, 32, 1, 15 * 4);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    ASSERT_EQ(bat.entries.size(), 1u);
    EXPECT_EQ(bat.entries[0].verdict, Verdict::InBounds);
    EXPECT_EQ(bat.entries[0].off_lo, 0);
    EXPECT_EQ(bat.entries[0].off_end, 60);

    // One element short: not provable.
    const auto tight = info_for(prog, 32, 1, 14 * 4);
    EXPECT_EQ(analyze_kernel(prog, tight).entries[0].verdict,
              Verdict::Unknown);
}

TEST(StaticAnalysis, SaturatedProductIsNotNarrowed)
{
    // gid * 2^k overflows the interval arithmetic's saturation bound.
    // A saturated bound is not a value: narrowing it back (shift,
    // min, a guard) must not prove the access.
    const auto kernel = [](Op narrow, int shift) {
        KernelBuilder b("saturated");
        const int a = b.arg_ptr("A");
        const int base = b.ldarg(a);
        const int gid = b.sreg(SpecialReg::GlobalId);
        const int big = b.alui(Op::Mul, gid, std::int64_t{1} << shift);
        const int idx = narrow == Op::Shr ? b.alui(Op::Shr, big, shift)
                                          : b.alui(Op::Min, big, 100);
        b.st(b.gep(base, idx, 4), gid, 4);
        b.exit();
        return b.finish();
    };
    // idx = (gid << 53) >> 53 reaches 1023, past 640 elements.
    const KernelProgram shr = kernel(Op::Shr, 53);
    const BoundsAnalysisTable shr_bat =
        analyze_kernel(shr, info_for(shr, 256, 4, 2560));
    ASSERT_EQ(shr_bat.entries.size(), 1u);
    EXPECT_EQ(shr_bat.entries[0].verdict, Verdict::Unknown);
    EXPECT_FALSE(shr_bat.entries[0].offsets_known);

    // min(gid << 62, 100) wraps negative at gid = 2.
    const KernelProgram mn = kernel(Op::Min, 62);
    const BoundsAnalysisTable mn_bat =
        analyze_kernel(mn, info_for(mn, 256, 4, 4096));
    ASSERT_EQ(mn_bat.entries.size(), 1u);
    EXPECT_EQ(mn_bat.entries[0].verdict, Verdict::Unknown);
    EXPECT_FALSE(mn_bat.entries[0].offsets_known);
}

/** FNV-1a over the eight bytes of @p v, folded into @p h. */
void
fnv_mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i, v >>= 8)
        h = (h ^ (v & 0xFF)) * 0x100000001b3ull;
}

/** Folds every BAT field of @p state, and the pointers, regions and
 *  covers the driver derived from it, into @p h. */
void
digest_launch(std::uint64_t &h, const LaunchState &state)
{
    const BoundsAnalysisTable &bat = state.bat;
    fnv_mix(h, bat.entries.size());
    for (const BatEntry &e : bat.entries) {
        for (const std::int64_t v :
             {std::int64_t{e.pc}, std::int64_t(e.base.kind),
              std::int64_t{e.base.index}, std::int64_t{e.is_store},
              std::int64_t{e.base_offset_mode}, std::int64_t(e.verdict),
              e.off_lo, e.off_end, std::int64_t{e.offsets_known},
              std::int64_t(e.check_kind), std::int64_t{e.cover_pc},
              e.cover_lo, e.cover_end})
            fnv_mix(h, static_cast<std::uint64_t>(v));
    }
    fnv_mix(h, bat.pointer_types.size());
    for (const auto &[ref, type] : bat.pointer_types) {
        fnv_mix(h, static_cast<std::uint64_t>(ref.kind));
        fnv_mix(h, static_cast<std::uint64_t>(ref.index));
        fnv_mix(h, static_cast<std::uint64_t>(type));
    }
    fnv_mix(h, state.program.code.size());
    for (const Instr &in : state.program.code)
        fnv_mix(h, static_cast<std::uint64_t>(in.check));
    fnv_mix(h, state.guards_removed);
    for (const std::uint64_t v : state.arg_values)
        fnv_mix(h, v);
    for (const std::uint64_t v : state.local_bases)
        fnv_mix(h, v);
    fnv_mix(h, state.heap_base_tagged);
    fnv_mix(h, state.ids_merged);
    for (const ShieldRegionDesc &r : state.shield_regions) {
        for (const std::uint64_t v :
             {std::uint64_t{r.id}, std::uint64_t{r.tag},
              r.bounds.base_addr, std::uint64_t{r.bounds.size},
              std::uint64_t{r.bounds.valid},
              std::uint64_t{r.bounds.read_only},
              std::uint64_t{r.bounds.kernel}})
            fnv_mix(h, v);
    }
    for (const Bounds &b : state.binding_table) {
        for (const std::uint64_t v :
             {b.base_addr, std::uint64_t{b.size}, std::uint64_t{b.valid},
              std::uint64_t{b.read_only}, std::uint64_t{b.kernel}})
            fnv_mix(h, v);
    }
    for (const auto &[ref, id] : state.id_map) {
        fnv_mix(h, static_cast<std::uint64_t>(ref.kind));
        fnv_mix(h, static_cast<std::uint64_t>(ref.index));
        fnv_mix(h, id);
    }
    for (const auto &[pc, c] : state.check_covers) {
        for (const std::uint64_t v :
             {std::uint64_t(c.pc), std::uint64_t(c.kind),
              std::uint64_t(c.cover_pc), c.va_lo, c.va_end,
              std::uint64_t(c.rel_lo), std::uint64_t(c.rel_end),
              std::uint64_t{c.is_store}})
            fnv_mix(h, v);
    }
}

TEST(StaticAnalysis, BatDigestOverEveryBenchmarkPinned)
{
    // Every CUDA, OpenCL and Fig. 19 benchmark, launched with static
    // analysis off and on and guard replacement off and on, check-opt
    // on. The value was captured before the access walk and the bound
    // finders were folded into one evaluator, and before Driver::launch
    // installed and signed every region through one path: a refactor
    // that moves any row, verdict, pointer or region breaks it.
    constexpr std::uint64_t kExpected = 0x5c5f41c3a728466dull;
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::size_t launches = 0;
    std::size_t rows = 0;
    for (const auto *set :
         {&workloads::cuda_benchmarks(), &workloads::opencl_benchmarks(),
          &workloads::rodinia_fig19_benchmarks()}) {
        for (const workloads::BenchmarkDef &def : *set) {
            for (const bool use_static : {false, true}) {
                for (const bool replace : {false, true}) {
                    GpuDevice dev(kPageSize2M);
                    Driver driver(dev);
                    workloads::WorkloadInstance inst = def.make(driver);
                    inst.replace_sw_checks = replace;
                    inst.optimize_checks = true;
                    LaunchState state =
                        driver.launch(inst.make_config(true, use_static));
                    digest_launch(h, state);
                    rows += state.bat.entries.size();
                    (void)driver.finish(state);
                    ++launches;
                }
            }
        }
    }
    EXPECT_EQ(launches, (88u + 17u + 9u) * 4u);
    EXPECT_EQ(rows, 3012u);
    EXPECT_EQ(h, kExpected) << std::hex << h;
}

TEST(Bat, ToStringListsRows)
{
    PatternParams p;
    p.name = "dump";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);
    const auto info = info_for(prog, 32, 1, 32 * 4);
    const BoundsAnalysisTable bat = analyze_kernel(prog, info);
    const std::string text = bat.to_string();
    EXPECT_NE(text.find("out-of-bounds"), std::string::npos);
    EXPECT_NE(text.find("arg"), std::string::npos);
}

} // namespace
} // namespace gpushield
