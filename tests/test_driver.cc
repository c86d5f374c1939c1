/**
 * @file
 * Unit tests for the GPU driver model (§5.4): allocation behaviour, ID
 * assignment + encryption, RBT setup, instruction patching, heap
 * management, and canary verification.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "driver/driver.h"
#include "shield/cipher.h"
#include "shield/pointer.h"
#include "workloads/kernels.h"

namespace gpushield {
namespace {

using workloads::PatternParams;

class DriverTest : public ::testing::Test
{
  protected:
    DriverTest() : dev_(kPageSize2M), driver_(dev_) {}

    LaunchConfig
    streaming_config(const KernelProgram &prog, std::uint32_t ntid,
                     std::uint32_t nctaid)
    {
        const std::uint64_t n = std::uint64_t{ntid} * nctaid;
        LaunchConfig cfg;
        cfg.program = &prog;
        cfg.ntid = ntid;
        cfg.nctaid = nctaid;
        for (std::size_t a = 0; a < prog.args.size(); ++a)
            if (prog.args[a].is_pointer)
                cfg.buffers.push_back(driver_.create_buffer(n * 4));
        return cfg;
    }

    GpuDevice dev_;
    Driver driver_;
};

TEST_F(DriverTest, BuffersPackedAt512)
{
    const BufferHandle a = driver_.create_buffer(100);
    const BufferHandle b = driver_.create_buffer(100);
    EXPECT_EQ(driver_.region(a).base % kAllocAlign, 0u);
    EXPECT_EQ(driver_.region(b).base, driver_.region(a).base + 512);
}

TEST_F(DriverTest, UploadDownloadRoundTrip)
{
    const BufferHandle h = driver_.create_buffer(256);
    std::int32_t in[64], out[64] = {};
    for (int i = 0; i < 64; ++i)
        in[i] = i * 3 + 1;
    driver_.upload(h, in, sizeof(in));
    driver_.download(h, out, sizeof(out));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], in[i]);
}

TEST_F(DriverTest, LaunchAssignsUniqueRandomIds)
{
    PatternParams p;
    p.name = "multi";
    p.inputs = 8;
    const KernelProgram prog = workloads::make_multibuffer(p);
    const LaunchConfig cfg = streaming_config(prog, 64, 2);
    LaunchState state = driver_.launch(cfg);

    std::set<BufferId> ids;
    for (const auto &[ref, id] : state.id_map) {
        EXPECT_GT(id, 0u); // ID 0 reserved
        EXPECT_LT(id, kNumBufferIds);
        EXPECT_TRUE(ids.insert(id).second) << "duplicate buffer ID";
    }
    EXPECT_EQ(ids.size(), 9u); // 8 inputs + out
}

TEST_F(DriverTest, PointerTagsDecryptToAssignedIds)
{
    PatternParams p;
    p.name = "vec";
    p.inputs = 2;
    const KernelProgram prog = workloads::make_streaming(p);
    const LaunchConfig cfg = streaming_config(prog, 64, 2);
    LaunchState state = driver_.launch(cfg);

    IdCipher cipher(state.secret_key);
    for (std::size_t a = 0; a < prog.args.size(); ++a) {
        if (!prog.args[a].is_pointer)
            continue;
        const std::uint64_t ptr = state.arg_values[a];
        EXPECT_EQ(ptr_class(ptr), PtrClass::TaggedId);
        const BufferId id =
            state.id_map.at(BaseRef{BaseKind::Arg, static_cast<int>(a)});
        EXPECT_EQ(cipher.decrypt(ptr_field(ptr)), id);
        // RBT entry matches the bound region.
        const Bounds b = state.rbt->get(id);
        EXPECT_TRUE(b.valid);
        EXPECT_EQ(b.base_addr, ptr_addr(ptr));
        EXPECT_EQ(b.kernel, state.kernel_id);
    }
}

TEST_F(DriverTest, KeysAndIdsDifferAcrossLaunches)
{
    PatternParams p;
    p.name = "vec";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);
    const LaunchConfig cfg = streaming_config(prog, 64, 1);
    LaunchState s1 = driver_.launch(cfg);
    LaunchState s2 = driver_.launch(cfg);
    EXPECT_NE(s1.secret_key, s2.secret_key);
    EXPECT_NE(s1.kernel_id, s2.kernel_id);
    // Same buffer, fresh ID per launch (IDs are per-kernel).
    const BaseRef ref{BaseKind::Arg, 0};
    EXPECT_NE(s1.id_map.at(ref), s2.id_map.at(ref));
    // And the embedded ciphertexts differ (per-kernel key).
    EXPECT_NE(ptr_field(s1.arg_values[0]), ptr_field(s2.arg_values[0]));
}

TEST_F(DriverTest, ShieldDisabledGivesPlainPointers)
{
    PatternParams p;
    p.name = "vec";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);
    LaunchConfig cfg = streaming_config(prog, 64, 1);
    cfg.shield_enabled = false;
    LaunchState state = driver_.launch(cfg);
    for (std::size_t a = 0; a < prog.args.size(); ++a) {
        if (prog.args[a].is_pointer) {
            EXPECT_EQ(ptr_class(state.arg_values[a]),
                      PtrClass::Unprotected);
        }
    }
}

TEST_F(DriverTest, StaticAnalysisPatchesInstructions)
{
    PatternParams p;
    p.name = "vec";
    p.inputs = 2;
    const KernelProgram prog = workloads::make_streaming(p);
    LaunchConfig cfg = streaming_config(prog, 64, 2);
    cfg.use_static_analysis = true;
    LaunchState state = driver_.launch(cfg);

    unsigned safe = 0, mem = 0;
    for (const Instr &in : state.program.code) {
        if (!is_global_mem(in.op))
            continue;
        ++mem;
        safe += in.check == CheckMode::StaticSafe;
    }
    EXPECT_GT(mem, 0u);
    EXPECT_EQ(safe, mem); // perfectly-sized streaming: all proven

    // Without the flag nothing is patched.
    cfg.use_static_analysis = false;
    LaunchState plain = driver_.launch(cfg);
    for (const Instr &in : plain.program.code) {
        if (is_global_mem(in.op)) {
            EXPECT_EQ(in.check, CheckMode::Checked);
        }
    }
}

TEST_F(DriverTest, LocalVariablesGetRbtEntries)
{
    PatternParams p;
    p.name = "loc";
    p.inner_iters = 4;
    const KernelProgram prog = workloads::make_local_array(p);
    const LaunchConfig cfg = streaming_config(prog, 64, 2);
    LaunchState state = driver_.launch(cfg);

    ASSERT_EQ(state.local_bases.size(), 1u);
    const std::uint64_t lp = state.local_bases[0];
    EXPECT_EQ(ptr_class(lp), PtrClass::TaggedId);
    const BufferId id = state.id_map.at(BaseRef{BaseKind::Local, 0});
    const Bounds b = state.rbt->get(id);
    EXPECT_TRUE(b.valid);
    // Size = elems * elem_size * total threads.
    EXPECT_EQ(b.size, 4u * 4u * 64u * 2u);
}

TEST_F(DriverTest, HeapEntryAndDeviceMalloc)
{
    PatternParams p;
    p.name = "heapk";
    const KernelProgram prog = workloads::make_heap(p);
    LaunchConfig cfg;
    cfg.program = &prog;
    cfg.ntid = 32;
    cfg.nctaid = 1;
    cfg.buffers.push_back(driver_.create_buffer(32 * 4));
    cfg.heap_bytes = 1 << 16;
    LaunchState state = driver_.launch(cfg);

    EXPECT_NE(state.heap_base_tagged, 0u);
    EXPECT_EQ(ptr_class(state.heap_base_tagged), PtrClass::TaggedId);

    const std::uint64_t p1 = driver_.device_malloc(state, 64);
    const std::uint64_t p2 = driver_.device_malloc(state, 64);
    EXPECT_NE(ptr_addr(p1), 0u);
    EXPECT_GE(ptr_addr(p2), ptr_addr(p1) + 64);
    // Heap pointers carry the heap region's tag.
    EXPECT_EQ(ptr_field(p1), ptr_field(state.heap_base_tagged));

    // Exhaustion returns null (CUDA malloc semantics).
    const std::uint64_t big = driver_.device_malloc(state, 1 << 20);
    EXPECT_EQ(big, 0u);
}

TEST_F(DriverTest, CanaryDetectsPaddingCorruption)
{
    // Pow2 buffer: 100 bytes in a 512B window; padding is canary-filled
    // when the pointer goes out as Type 3.
    KernelBuilder b("t3");
    const int a = b.arg_ptr("a");
    const int gid = b.sreg(SpecialReg::GlobalId);
    const int base = b.ldarg(a);
    b.st_bo(base, gid, 4, gid);
    b.exit();
    const KernelProgram prog = b.finish();

    LaunchConfig cfg;
    cfg.program = &prog;
    // 32 threads x 4B = 128B > 100B: not statically provable, so the
    // all-base-offset pow2 buffer becomes Type 3.
    cfg.ntid = 32;
    cfg.nctaid = 1;
    cfg.use_static_analysis = true; // needed for Type 3 assignment
    cfg.buffers.push_back(
        driver_.create_buffer(100, false, /*pow2=*/true, "t3buf"));
    LaunchState state = driver_.launch(cfg);
    ASSERT_EQ(ptr_class(state.arg_values[0]), PtrClass::SizedWindow);

    // No corruption: no reports.
    EXPECT_TRUE(driver_.finish(state).empty());

    // Corrupt one padding byte behind the user region.
    LaunchState again = driver_.launch(cfg);
    const VaRegion &r = driver_.region(cfg.buffers[0]);
    const Translation t =
        dev_.page_table().translate(r.base + r.size + 5, true);
    dev_.mem().write_as<std::uint8_t>(t.paddr, 0x00);
    const auto reports = driver_.finish(again);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].corrupt_bytes, 1u);
    EXPECT_EQ(reports[0].first_corrupt, r.base + r.size + 5);
}

TEST_F(DriverTest, RbtClearedAtFinish)
{
    PatternParams p;
    p.name = "vec";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);
    const LaunchConfig cfg = streaming_config(prog, 64, 1);
    LaunchState state = driver_.launch(cfg);
    const BufferId id = state.id_map.at(BaseRef{BaseKind::Arg, 0});
    EXPECT_TRUE(state.rbt->get(id).valid);
    driver_.finish(state);
    EXPECT_FALSE(state.rbt->get(id).valid);
}

/** The physical span [first, last + 1) of every byte of @p r, checked
 *  page by page to be one contiguous run. */
std::pair<PAddr, PAddr>
physical_span(const PageTable &pt, const VaRegion &r)
{
    const PAddr first = pt.translate(r.base, false).paddr;
    const VAddr end = r.base + r.size;
    for (VAddr v = r.base; v < end;
         v = align_down(v, pt.page_size()) + pt.page_size()) {
        const Translation t = pt.translate(v, false);
        EXPECT_TRUE(t.ok);
        EXPECT_EQ(t.paddr, first + (v - r.base));
    }
    EXPECT_EQ(pt.translate(end - 1, false).paddr, first + r.size - 1);
    return {first, first + r.size};
}

TEST(GpuDevice, FullWindowsReachNoOtherWindow)
{
    // Each window's largest allocation stays inside it. A 3.25 GiB
    // buffer used to lay its in-bounds bytes over the RBT.
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    const std::uint64_t global = 16ull << 30;
    EXPECT_THROW(driver.create_buffer(global + 1), std::invalid_argument);
    const VaRegion buffer = driver.region(driver.create_buffer(global));
    EXPECT_THROW(driver.create_buffer(1), std::invalid_argument);
    const VaRegion local = dev.local_alloc().alloc(1ull << 30);
    EXPECT_THROW(dev.local_alloc().alloc(1), std::invalid_argument);
    const VaRegion heap = dev.heap_alloc().alloc(1ull << 30);
    EXPECT_THROW(dev.heap_alloc().alloc(1), std::invalid_argument);

    const std::vector<std::pair<PAddr, PAddr>> spans = {
        physical_span(dev.page_table(), buffer),
        physical_span(dev.page_table(), local),
        physical_span(dev.page_table(), heap),
        {dev.rbt_base(0),
         dev.rbt_base(0xFFFF) + RegionBoundsTable::kTableBytes}};
    for (std::size_t i = 0; i < spans.size(); ++i)
        for (std::size_t j = i + 1; j < spans.size(); ++j)
            EXPECT_TRUE(spans[i].second <= spans[j].first ||
                        spans[j].second <= spans[i].first)
                << i << " overlaps " << j;
}

} // namespace
} // namespace gpushield
