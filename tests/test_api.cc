/**
 * @file
 * Tests for the high-level host API (api::Context): memory management,
 * positional argument binding, launch options, the LaunchStatus
 * error-reporting contract, and the profiling surface.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "api/gpushield_api.h"
#include "isa/builder.h"
#include "obs/trace_json.h"
#include "workloads/kernels.h"

namespace gpushield {
namespace {

using namespace api;
using workloads::PatternParams;

GpuConfig
small_config()
{
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 4;
    return cfg;
}

TEST(Api, VectorAddEndToEnd)
{
    Context ctx(small_config());

    PatternParams p;
    p.name = "vecadd";
    p.inputs = 2;
    p.inner_iters = 1;
    const KernelProgram prog = workloads::make_streaming(p);

    const std::uint64_t n = 4096;
    const Buffer a = ctx.malloc(n * 4);
    const Buffer b = ctx.malloc(n * 4);
    const Buffer c = ctx.malloc(n * 4);
    std::vector<std::int32_t> ha(n), hb(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        ha[i] = static_cast<std::int32_t>(i);
        hb[i] = static_cast<std::int32_t>(i * i % 97);
    }
    ctx.upload(a, ha.data(), n * 4);
    ctx.upload(b, hb.data(), n * 4);

    const LaunchResult r =
        ctx.launch(prog, {256, 16}, {arg(a), arg(b), arg(c)});
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.status, LaunchStatus::Ok);
    EXPECT_TRUE(r.status_message.empty());
    EXPECT_TRUE(r.violations.empty());
    EXPECT_GT(r.cycles, 0u);
    // Static analysis is on by default: checks elided entirely.
    EXPECT_EQ(r.stats.get("checks"), 0u);
    EXPECT_GT(r.stats.get("checks_elided"), 0u);

    std::vector<std::int32_t> hc(n);
    ctx.download(c, hc.data(), n * 4);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(hc[i], ha[i] + hb[i]);
}

TEST(Api, BufferDescOptions)
{
    Context ctx(small_config());
    // Designated initializers bind by field name — no bool soup.
    const Buffer ro =
        ctx.malloc(256, {.read_only = true, .label = "lut"});
    const Buffer window = ctx.malloc(100, {.pow2 = true});
    EXPECT_TRUE(ctx.driver().region(ro).read_only);
    EXPECT_EQ(ctx.driver().region(ro).label, "lut");
    EXPECT_FALSE(ctx.driver().region(window).read_only);
    // pow2 regions reserve at least the requested window.
    EXPECT_GE(ctx.driver().region(window).reserved, 100u);
}

TEST(Api, BufferDescReadOnlyBinds)
{
    Context ctx(small_config());
    const Buffer ro = ctx.malloc(256, {.read_only = true});
    EXPECT_TRUE(ctx.driver().region(ro).read_only);
}

TEST(Api, ArgAccessors)
{
    Context ctx(small_config());
    const Buffer buf = ctx.malloc(64);

    const Arg b = arg(buf);
    EXPECT_TRUE(b.is_buffer());
    EXPECT_EQ(b.buffer().index, buf.index);

    const Arg s = arg(std::int64_t{42});
    EXPECT_FALSE(s.is_buffer());
    EXPECT_EQ(s.scalar(), 42);
    EXPECT_FALSE(s.scalar_static());

    const Arg st = arg(std::int64_t{7}, Static::yes);
    EXPECT_FALSE(st.is_buffer());
    EXPECT_EQ(st.scalar(), 7);
    EXPECT_TRUE(st.scalar_static());
}

TEST(Api, DetectsOverflowingKernel)
{
    Context ctx(small_config());
    PatternParams p;
    p.name = "oob";
    const KernelProgram prog = workloads::make_overflowing(p, 32);

    const std::uint64_t n = 1024;
    const Buffer in = ctx.malloc(n * 4);
    const Buffer out = ctx.malloc(n * 4);
    const LaunchResult r =
        ctx.launch(prog, {256, 4}, {arg(in), arg(out)});
    EXPECT_FALSE(r.violations.empty());
    // Error-logging mode: violations are squashed and logged, the
    // kernel itself still completes — that is an Ok launch.
    EXPECT_TRUE(r.ok());
}

TEST(Api, ScalarArgumentsAndStaticFlag)
{
    Context ctx(small_config());
    PatternParams p;
    p.name = "guarded";
    p.inputs = 1;
    p.inner_iters = 1;
    p.tid_guard = true;
    const KernelProgram prog = workloads::make_streaming(p);

    const std::uint64_t n = 1024;
    const Buffer in = ctx.malloc(n * 4);
    const Buffer out = ctx.malloc(n * 4);

    // Runtime scalar: checks stay.
    const LaunchResult dynamic = ctx.launch(
        prog, {256, 4},
        {arg(in), arg(out), arg(static_cast<std::int64_t>(n))});
    EXPECT_TRUE(dynamic.violations.empty());

    // Shield off entirely: nothing checked.
    LaunchOptions off;
    off.shield = false;
    const LaunchResult plain = ctx.launch(
        prog, {256, 4},
        {arg(in), arg(out), arg(static_cast<std::int64_t>(n))}, off);
    EXPECT_EQ(plain.stats.get("checks"), 0u);
    EXPECT_EQ(plain.stats.get("checks_elided"), 0u);
}

TEST(Api, ReadOnlyBufferEnforced)
{
    Context ctx(small_config());
    KernelBuilder b("ro_poke");
    const int lut = b.arg_ptr("lut");
    const int base = b.ldarg(lut);
    b.st(b.gep(base, b.mov_imm(0), 4), b.mov_imm(1), 4);
    b.exit();
    const KernelProgram prog = b.finish();

    const Buffer ro = ctx.malloc(256, {.read_only = true});
    const LaunchResult r = ctx.launch(prog, {1, 1}, {arg(ro)});
    ASSERT_FALSE(r.violations.empty());
    EXPECT_EQ(r.violations[0].kind, ViolationKind::ReadOnlyWrite);
}

TEST(Api, ArgumentMismatchThrows)
{
    Context ctx(small_config());
    PatternParams p;
    p.name = "vec";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);
    const Buffer buf = ctx.malloc(1024);

    // Host-API misuse throws before any simulation runs (the contract
    // in gpushield_api.h); simulated-program faults never throw.
    EXPECT_THROW(ctx.launch(prog, {32, 1}, {arg(buf)}),
                 std::invalid_argument);
    EXPECT_THROW(ctx.launch(prog, {32, 1},
                            {arg(std::int64_t{1}), arg(buf)}),
                 std::invalid_argument);

    // A buffer index outside the argument list (e.g. from a decoded
    // binary) throws instead of indexing or growing the buffer table.
    EXPECT_NO_THROW(make_launch_config(ctx.driver(), prog, {32, 1},
                                       {arg(buf), arg(buf)},
                                       LaunchOptions{}));
    for (const int bad : {-1, 1 << 30}) {
        KernelProgram mangled = prog;
        for (KernelArgSpec &spec : mangled.args)
            if (spec.is_pointer)
                spec.buffer_index = bad;
        EXPECT_THROW(ctx.launch(mangled, {32, 1}, {arg(buf), arg(buf)}),
                     std::invalid_argument)
            << bad;
    }

    // So does a buffer handle this context never made.
    for (const int bad : {-1, buf.index + 1})
        EXPECT_THROW(ctx.launch(prog, {32, 1}, {arg(buf), arg(Buffer{bad})}),
                     std::invalid_argument)
            << bad;

    // So does a program that fails validate(): here a load whose address
    // register, or base+offset index register, lies past the register
    // file, which the core would otherwise read out of bounds.
    for (const bool index : {false, true}) {
        KernelProgram mangled = prog;
        for (Instr &in : mangled.code) {
            if (in.op != Op::Ld)
                continue;
            in.base_offset = index;
            (index ? in.rb : in.ra) = 1 << 20;
        }
        EXPECT_THROW(ctx.launch(mangled, {32, 1}, {arg(buf), arg(buf)}),
                     std::invalid_argument)
            << index;
    }
}

TEST(Api, BadMemoryGeometryThrows)
{
    // A page size or cache geometry that is not a power of two is a
    // host-API error: the context refuses the page size, and a launch
    // refuses the cache before any simulation runs.
    GpuConfig bad_pages = small_config();
    bad_pages.mem.page_size = 3 * 4096;
    EXPECT_THROW(Context{bad_pages}, std::invalid_argument);
    // A page over 512 MiB would map across the edge of its window.
    bad_pages.mem.page_size = std::uint64_t{1} << 30;
    EXPECT_THROW(Context{bad_pages}, std::invalid_argument);

    GpuConfig bad_l1 = small_config();
    bad_l1.mem.l1.size_bytes = 3 * bad_l1.mem.l1.line_size *
                               bad_l1.mem.l1.assoc; // 3 sets
    Context ctx(bad_l1);
    PatternParams p;
    p.name = "vec";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);
    const Buffer buf = ctx.malloc(1024);
    EXPECT_THROW(ctx.launch(prog, {32, 1}, {arg(buf), arg(buf)}),
                 std::invalid_argument);
}

TEST(Api, ZeroRCachePartitionsThrows)
{
    // An RCache with no bank is a host-API configuration error like a
    // bad cache geometry: the launch refuses it instead of exiting.
    GpuConfig cfg = small_config();
    cfg.shield.region.partitions = 0;
    Context ctx(cfg);
    PatternParams p;
    p.name = "vec";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);
    const Buffer buf = ctx.malloc(1024);
    EXPECT_THROW(ctx.launch(prog, {32, 1}, {arg(buf), arg(buf)}),
                 std::invalid_argument);

    cfg.shield.region.partitions = 1;
    Context ok(cfg);
    const Buffer ok_buf = ok.malloc(1024);
    EXPECT_NO_THROW(ok.launch(prog, {32, 1}, {arg(ok_buf), arg(ok_buf)}));
}

TEST(Api, PreciseExceptionAbortIsReported)
{
    GpuConfig cfg = small_config();
    cfg.precise_exceptions = true;
    Context ctx(cfg);

    PatternParams p;
    p.name = "oob_precise";
    const KernelProgram prog = workloads::make_overflowing(p, 32);
    const std::uint64_t n = 1024;
    const Buffer in = ctx.malloc(n * 4);
    const Buffer out = ctx.malloc(n * 4);

    const LaunchResult r =
        ctx.launch(prog, {256, 4}, {arg(in), arg(out)});
    EXPECT_EQ(r.status, LaunchStatus::Aborted);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.status_message.empty());
}

TEST(Api, SimulationErrorIsReportedNotThrown)
{
    GpuConfig cfg = small_config();
    cfg.max_cycles = 8; // far below any real kernel's runtime
    Context ctx(cfg);

    PatternParams p;
    p.name = "budget";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);
    const std::uint64_t n = 4096;
    const Buffer in = ctx.malloc(n * 4);
    const Buffer out = ctx.malloc(n * 4);

    const LaunchResult r =
        ctx.launch(prog, {256, 16}, {arg(in), arg(out)});
    EXPECT_EQ(r.status, LaunchStatus::Error);
    EXPECT_NE(r.status_message.find("budget"), std::string::npos);
}

TEST(Api, LaunchStatusToString)
{
    EXPECT_STREQ(to_string(LaunchStatus::Ok), "ok");
    EXPECT_STREQ(to_string(LaunchStatus::Aborted), "aborted");
    EXPECT_STREQ(to_string(LaunchStatus::Error), "error");
}

TEST(Api, RepeatedLaunchesHoldNoMoreDeviceMemory)
{
    // Every launch takes a fresh kernel ID and zero-fills that kernel's
    // whole 256 KiB RBT table, at launch and again at finish; the fills
    // must not leave the table's frames backed.
    Context ctx;
    const Buffer a = ctx.malloc(64);
    KernelBuilder b("store");
    b.st(b.ldarg(b.arg_ptr("A")), b.mov_imm(1), 4);
    b.exit();
    const KernelProgram prog = b.finish();
    ASSERT_TRUE(ctx.launch(prog, {1, 1}, {arg(a)}).ok());
    const std::size_t frames = ctx.device().mem().backed_frames();
    for (int i = 1; i < 1000; ++i)
        ASSERT_TRUE(ctx.launch(prog, {1, 1}, {arg(a)}).ok());
    EXPECT_EQ(ctx.device().mem().backed_frames(), frames);
}

TEST(Api, ProfiledLaunchAttributesEveryWarpCycle)
{
    Context ctx(small_config());
    PatternParams p;
    p.name = "prof";
    p.inputs = 2;
    const KernelProgram prog = workloads::make_streaming(p);

    const std::uint64_t n = 4096;
    const Buffer a = ctx.malloc(n * 4);
    const Buffer b = ctx.malloc(n * 4);
    const Buffer c = ctx.malloc(n * 4);

    obs::Profiler prof;
    ctx.attach_profiler(&prof);
    const LaunchResult r =
        ctx.launch(prog, {256, 16}, {arg(a), arg(b), arg(c)});
    ASSERT_TRUE(r.ok());
    const obs::ProfileSummary s = prof.summary();
    ASSERT_TRUE(s.enabled);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_GT(s.warp_cycles, 0u);
    EXPECT_GT(s.cause_cycles[static_cast<std::size_t>(
                  obs::StallCause::Issued)],
              0u);

    // Every workgroup's per-warp cause cycles sum to its residency.
    for (const obs::WorkgroupSpan &wg : prof.workgroups()) {
        ASSERT_FALSE(wg.open);
        for (const obs::WarpStallBreakdown &w : wg.warps)
            EXPECT_EQ(w.total(), wg.end - wg.start);
    }

    // Successive profiled launches land later on the same timeline.
    const LaunchResult r2 =
        ctx.launch(prog, {256, 16}, {arg(a), arg(b), arg(c)});
    ASSERT_TRUE(r2.ok());
    EXPECT_GT(prof.summary().warp_cycles, s.warp_cycles);
    ASSERT_EQ(prof.kernels().size(), 2u);
    EXPECT_GE(prof.kernels()[1].start, prof.kernels()[0].end);

    // The trace round-trips through the parser and validates.
    std::ostringstream os;
    prof.write_chrome_trace(os);
    const JsonValue root = parse_json(os.str());
    std::string error;
    EXPECT_TRUE(obs::validate_trace(root, &error)) << error;
}

TEST(Api, ProfilingDoesNotPerturbTiming)
{
    PatternParams p;
    p.name = "twin";
    p.inputs = 2;
    const KernelProgram prog = workloads::make_streaming(p);
    const std::uint64_t n = 2048;

    auto run = [&](bool profiled) {
        Context ctx(small_config());
        const Buffer a = ctx.malloc(n * 4);
        const Buffer b = ctx.malloc(n * 4);
        const Buffer c = ctx.malloc(n * 4);
        obs::Profiler prof;
        if (profiled)
            ctx.attach_profiler(&prof);
        return ctx.launch(prog, {256, 8}, {arg(a), arg(b), arg(c)});
    };

    const LaunchResult plain = run(false);
    const LaunchResult profiled = run(true);
    EXPECT_EQ(plain.cycles, profiled.cycles);
    EXPECT_TRUE(plain.stats == profiled.stats);
}

TEST(Api, ObserverAttaches)
{
    struct CountingObserver final : LaneObserver
    {
        std::uint64_t issues = 0;
        void
        on_step(CoreId, KernelId, const WarpState &,
                const Instr &) override
        {
            ++issues;
        }
    };

    Context ctx(small_config());
    PatternParams p;
    p.name = "obs";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);
    const std::uint64_t n = 1024;
    const Buffer in = ctx.malloc(n * 4);
    const Buffer out = ctx.malloc(n * 4);

    CountingObserver counter;
    ctx.attach(counter);
    const LaunchResult r =
        ctx.launch(prog, {256, 4}, {arg(in), arg(out)});
    EXPECT_EQ(counter.issues, r.stats.get("instructions"));

    ctx.detach_observer();
    ctx.launch(prog, {256, 4}, {arg(in), arg(out)});
    EXPECT_EQ(counter.issues, r.stats.get("instructions"));
}

TEST(Api, HeapKernelThroughApi)
{
    Context ctx(small_config());
    PatternParams p;
    p.name = "heapk";
    const KernelProgram prog = workloads::make_heap(p);
    const Buffer out = ctx.malloc(64 * 4);

    LaunchOptions opts;
    opts.heap_bytes = 1 << 16;
    const LaunchResult r = ctx.launch(
        prog, {64, 1}, {arg(out), arg(std::int64_t{16})}, opts);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.stats.get("mallocs"), 64u);
}

TEST(Api, AddressOfMatchesDriverLayout)
{
    Context ctx(small_config());
    const Buffer a = ctx.malloc(100);
    const Buffer b = ctx.malloc(100);
    EXPECT_EQ(ctx.address_of(b), ctx.address_of(a) + 512);
}

} // namespace
} // namespace gpushield
