/**
 * @file
 * Tests for the §6.4 guard-replacement pass: eligibility rules,
 * transformation shape, and end-to-end semantic equivalence (the
 * removed software guard and the BCU's silent lane squash must produce
 * bit-identical memory).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "compiler/guard_replace.h"
#include "driver/driver.h"
#include "isa/builder.h"
#include "sim/config.h"
#include "sim/gpu.h"

namespace gpushield {
namespace {

GpuConfig
small_config()
{
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 4;
    return cfg;
}

/** Guarded copy: if (gid < n) out[gid] = in[gid] + 1. */
KernelProgram
guarded_copy()
{
    KernelBuilder b("guarded_copy");
    const int in = b.arg_ptr("in");
    const int out = b.arg_ptr("out");
    const int n_arg = b.arg_scalar("n");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int n = b.ldarg(n_arg);
    const int ok = b.setp(Cmp::Lt, gid, n);
    b.if_then(ok, false, [&] {
        const int ib = b.ldarg(in);
        const int v = b.ld(b.gep(ib, gid, 4), 4);
        const int w = b.alui(Op::Add, v, 1);
        const int ob = b.ldarg(out);
        b.st(b.gep(ob, gid, 4), w, 4);
    });
    b.exit();
    return b.finish();
}

StaticLaunchInfo
info_for(const KernelProgram &prog, std::uint32_t nthreads,
         std::uint64_t buf_bytes, std::optional<std::int64_t> n)
{
    StaticLaunchInfo info;
    info.ntid = 256;
    info.nctaid = nthreads / 256;
    info.arg_buffer_sizes.assign(prog.args.size(), 0);
    info.arg_buffer_pow2.assign(prog.args.size(), false);
    info.scalar_values.assign(prog.args.size(), std::nullopt);
    for (std::size_t a = 0; a < prog.args.size(); ++a) {
        if (prog.args[a].is_pointer)
            info.arg_buffer_sizes[a] = buf_bytes;
        else
            info.scalar_values[a] = n;
    }
    return info;
}

TEST(GuardReplace, RemovesCanonicalGuard)
{
    const KernelProgram prog = guarded_copy();
    // Buffers hold exactly n = 1000 elements; grid is 1024 threads.
    const auto info = info_for(prog, 1024, 1000 * 4, 1000);
    const GuardReplaceResult r = replace_sw_guards(prog, info);
    EXPECT_EQ(r.guards_removed, 1u);

    unsigned replaced = 0, branches = 0;
    for (const Instr &in : r.program.code) {
        branches += in.op == Op::Bra || in.op == Op::Ssy;
        if (is_global_mem(in.op)) {
            EXPECT_EQ(in.check, CheckMode::GuardReplaced);
        }
        replaced += is_global_mem(in.op) &&
                    in.check == CheckMode::GuardReplaced;
    }
    EXPECT_EQ(branches, 0u);   // guard gone
    EXPECT_EQ(replaced, 2u);   // the ld and the st
    // The guard instructions were deleted outright.
    EXPECT_LT(r.program.code.size(), prog.code.size());
    r.program.validate(); // targets remapped consistently
}

TEST(GuardReplace, KeepsGuardWhenBoundIsRuntime)
{
    const KernelProgram prog = guarded_copy();
    const auto info = info_for(prog, 1024, 1000 * 4, std::nullopt);
    const GuardReplaceResult r = replace_sw_guards(prog, info);
    EXPECT_EQ(r.guards_removed, 0u);
}

TEST(GuardReplace, KeepsGuardWhenItMasksInBoundsWork)
{
    // Buffer holds 2000 elements but the guard stops at 1000: removing
    // it would let threads 1000-1023 write *in bounds* — a semantic
    // change the pass must refuse.
    const KernelProgram prog = guarded_copy();
    const auto info = info_for(prog, 1024, 2000 * 4, 1000);
    const GuardReplaceResult r = replace_sw_guards(prog, info);
    EXPECT_EQ(r.guards_removed, 0u);
}

TEST(GuardReplace, KeepsGuardWhenRegionValueEscapes)
{
    // The loaded value is used after the region: squashed lanes'
    // zero-loads would leak out.
    KernelBuilder b("escaping");
    const int in = b.arg_ptr("in");
    const int out = b.arg_ptr("out");
    const int n_arg = b.arg_scalar("n");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int n = b.ldarg(n_arg);
    const int ok = b.setp(Cmp::Lt, gid, n);
    const int escape = b.mov_imm(0);
    b.if_then(ok, false, [&] {
        const int ib = b.ldarg(in);
        const int v = b.ld(b.gep(ib, gid, 4), 4);
        b.mov(escape, v);
    });
    // Post-region use of the region-defined value.
    const int ob = b.ldarg(out);
    const int masked = b.alui(Op::And, gid, 1023);
    b.st(b.gep(ob, masked, 4), escape, 4);
    b.exit();
    const KernelProgram prog = b.finish();

    const auto info = info_for(prog, 1024, 1000 * 4, 1000);
    const GuardReplaceResult r = replace_sw_guards(prog, info);
    EXPECT_EQ(r.guards_removed, 0u);
}

TEST(GuardReplace, KeepsGuardWithNestedControlFlow)
{
    KernelBuilder b("nested");
    const int in = b.arg_ptr("in");
    const int n_arg = b.arg_scalar("n");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int n = b.ldarg(n_arg);
    const int ok = b.setp(Cmp::Lt, gid, n);
    b.if_then(ok, false, [&] {
        b.loop_n(2, [&](int i) {
            const int ib = b.ldarg(in);
            b.st(b.gep(ib, gid, 4), i, 4);
        });
    });
    b.exit();
    const KernelProgram prog = b.finish();
    const auto info = info_for(prog, 1024, 1000 * 4, 1000);
    EXPECT_EQ(replace_sw_guards(prog, info).guards_removed, 0u);
}

TEST(GuardReplace, EndToEndEquivalence)
{
    const KernelProgram prog = guarded_copy();
    const std::uint64_t n = 1000;
    const std::uint32_t nthreads = 1024;

    auto run = [&](bool replace) {
        GpuDevice dev(kPageSize2M);
        Driver driver(dev);
        const BufferHandle in = driver.create_buffer(n * 4);
        const BufferHandle out = driver.create_buffer(n * 4);
        std::vector<std::int32_t> data(n);
        for (std::uint64_t i = 0; i < n; ++i)
            data[i] = static_cast<std::int32_t>(5 * i + 3);
        driver.upload(in, data.data(), n * 4);

        LaunchConfig cfg;
        cfg.program = &prog;
        cfg.ntid = 256;
        cfg.nctaid = nthreads / 256;
        cfg.buffers = {in, out};
        cfg.scalars = {0, 0, static_cast<std::int64_t>(n)};
        cfg.scalar_static = {false, false, true};
        cfg.replace_sw_checks = replace;

        LaunchState state = driver.launch(cfg);
        const unsigned removed = state.guards_removed;
        Gpu gpu(small_config(), driver);
        const auto idx = gpu.launch(std::move(state));
        gpu.run();
        const KernelResult r = gpu.result(idx);

        std::vector<std::int32_t> got(n);
        driver.download(out, got.data(), n * 4);
        return std::tuple{got, r, removed,
                          gpu.bcu_stats().get("guard_suppressed")};
    };

    const auto [guarded_out, guarded_res, removed0, sup0] = run(false);
    EXPECT_EQ(removed0, 0u);
    EXPECT_EQ(sup0, 0u);
    EXPECT_TRUE(guarded_res.violations.empty());

    const auto [replaced_out, replaced_res, removed1, sup1] = run(true);
    EXPECT_EQ(removed1, 1u);
    EXPECT_TRUE(replaced_res.violations.empty())
        << "guard squashes must be silent";
    EXPECT_GT(sup1, 0u); // the tail warp's squash happened
    EXPECT_EQ(replaced_out, guarded_out);

    // Fewer issued instructions without the guard.
    EXPECT_LT(replaced_res.stats.get("instructions"),
              guarded_res.stats.get("instructions"));
}

/** What one launch over a zeroed 1024-element buffer `A` did. */
struct StoreCount
{
    unsigned guards_removed = 0;
    std::size_t written = 0; //!< elements of A the kernel set to 7
    std::size_t violations = 0;
};

StoreCount
run_on_a(const KernelProgram &prog, std::uint32_t nthreads, bool replace)
{
    constexpr std::uint64_t kElems = 1024;
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    const BufferHandle a = driver.create_buffer(kElems * 4);
    std::vector<std::int32_t> data(kElems, 0);
    driver.upload(a, data.data(), kElems * 4);

    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 256;
    cfg.nctaid = nthreads / 256;
    cfg.buffers = {a};
    cfg.replace_sw_checks = replace;

    LaunchState state = driver.launch(cfg);
    StoreCount out;
    out.guards_removed = state.guards_removed;
    Gpu gpu(small_config(), driver);
    const auto idx = gpu.launch(std::move(state));
    gpu.run();
    out.violations = gpu.result(idx).violations.size();
    driver.download(a, data.data(), kElems * 4);
    out.written = static_cast<std::size_t>(
        std::count(data.begin(), data.end(), 7));
    return out;
}

/** Checks that the pass keeps the guard of @p prog and that the launch
 *  with replacement on writes what the guarded launch writes. */
void
expect_guard_kept(const KernelProgram &prog, std::uint32_t nthreads,
                  std::size_t guarded_writes)
{
    const auto info = info_for(prog, nthreads, 1024 * 4, std::nullopt);
    EXPECT_EQ(replace_sw_guards(prog, info).guards_removed, 0u);

    const StoreCount guarded = run_on_a(prog, nthreads, false);
    EXPECT_EQ(guarded.written, guarded_writes);
    EXPECT_EQ(guarded.violations, 0u);

    const StoreCount replaced = run_on_a(prog, nthreads, true);
    EXPECT_EQ(replaced.guards_removed, 0u);
    EXPECT_EQ(replaced.written, guarded.written);
    EXPECT_EQ(replaced.violations, 0u);
}

TEST(GuardReplace, KeepsGuardWhenBoundRewrittenAfterRegion)
{
    // r = 100; p = gid < r; if (p) A[gid] = 7; r = 4096. The guard
    // compared against 100. Reading r's last value (4096) instead
    // would cover the 1024-element buffer, drop the guard, and let all
    // 1024 threads write.
    KernelBuilder b("bound_rewritten");
    const int arg = b.arg_ptr("A");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int r = b.mov_imm(100);
    const int p = b.setp(Cmp::Lt, gid, r);
    b.if_then(p, false, [&] {
        const int base = b.ldarg(arg);
        b.st(b.gep(base, gid, 4), b.mov_imm(7), 4);
    });
    b.mov(r, b.mov_imm(4096));
    b.exit();
    expect_guard_kept(b.finish(), 1024, 100);
}

TEST(GuardReplace, KeepsGuardWhenGuardedRegisterReassigned)
{
    // p = x < 1024; if (p) { x = gid >> 3; A[x] = 7 }. The guard said
    // nothing about the new x: guarded, threads 0-1023 write 128
    // elements; without it all 2048 threads write 256.
    KernelBuilder b("guarded_reassigned");
    const int arg = b.arg_ptr("A");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int x = b.reg();
    b.mov(x, gid);
    const int p = b.setpi(Cmp::Lt, x, 1024);
    b.if_then(p, false, [&] {
        b.mov(x, b.alui(Op::Shr, gid, 3));
        const int base = b.ldarg(arg);
        b.st(b.gep(base, x, 4), b.mov_imm(7), 4);
    });
    b.exit();
    expect_guard_kept(b.finish(), 2048, 128);
}

} // namespace
} // namespace gpushield
