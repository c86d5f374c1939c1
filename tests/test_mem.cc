/**
 * @file
 * Unit tests for the memory substrate: sparse physical memory, page
 * table + allocator, caches, TLBs, DRAM, and the assembled hierarchy.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/hierarchy.h"
#include "mem/page_table.h"
#include "mem/physical_memory.h"
#include "mem/tlb.h"

namespace gpushield {
namespace {

TEST(PhysicalMemory, ReadsZeroWhenUnbacked)
{
    PhysicalMemory mem;
    EXPECT_EQ(mem.read_as<std::uint64_t>(0x1234), 0u);
    EXPECT_EQ(mem.backed_frames(), 0u);
}

TEST(PhysicalMemory, RoundTrip)
{
    PhysicalMemory mem;
    mem.write_as<std::uint32_t>(0x1000, 0xDEADBEEF);
    EXPECT_EQ(mem.read_as<std::uint32_t>(0x1000), 0xDEADBEEFu);
}

TEST(PhysicalMemory, CrossFrameAccess)
{
    PhysicalMemory mem;
    const char msg[] = "spanning-two-frames";
    const PAddr at = kPageSize4K - 8; // straddles the frame boundary
    mem.write(at, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    mem.read(at, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(mem.backed_frames(), 2u);
}

TEST(PhysicalMemory, Fill)
{
    PhysicalMemory mem;
    mem.fill(100, 0xAB, 64);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(mem.read_as<std::uint8_t>(100 + i), 0xABu);
    EXPECT_EQ(mem.read_as<std::uint8_t>(164), 0u);
}

TEST(PageTable, TranslateMappedAndUnmapped)
{
    PageTable pt(kPageSize4K);
    pt.map(0x10000, 0x90000);
    const Translation t = pt.translate(0x10123, false);
    EXPECT_TRUE(t.ok);
    EXPECT_EQ(t.paddr, 0x90123u);
    EXPECT_FALSE(pt.translate(0x20000, false).ok);
}

TEST(PageTable, WriteProtection)
{
    PageTable pt(kPageSize4K);
    PageFlags ro;
    ro.writable = false;
    pt.map(0x3000, 0x5000, ro);
    EXPECT_TRUE(pt.translate(0x3000, false).ok);
    const Translation t = pt.translate(0x3000, true);
    EXPECT_FALSE(t.ok);
    EXPECT_TRUE(t.permission_fault);
}

TEST(PageTable, SystemReservedInaccessible)
{
    PageTable pt(kPageSize4K);
    PageFlags sys;
    sys.system_reserved = true;
    pt.map(0x4000, 0x6000, sys);
    EXPECT_TRUE(pt.translate(0x4000, false).permission_fault);
}

TEST(VaAllocator, PacksWith512Alignment)
{
    PageTable pt(kPageSize2M);
    VaAllocator alloc(pt, 0x2000'0000, 0x1000'0000);
    const VaRegion a = alloc.alloc(64);
    const VaRegion b = alloc.alloc(64);
    EXPECT_EQ(a.base % kAllocAlign, 0u);
    EXPECT_EQ(b.base, a.base + 512); // Fig. 4's consecutive packing
    EXPECT_EQ(a.reserved, 512u);
}

TEST(VaAllocator, Pow2ReservesWindow)
{
    PageTable pt(kPageSize2M);
    VaAllocator alloc(pt, 0x2000'0000, 0x1000'0000);
    const VaRegion r = alloc.alloc_pow2(3000);
    EXPECT_EQ(r.reserved, 4096u);
    EXPECT_EQ(r.base % 4096, 0u); // window-aligned
    EXPECT_EQ(r.size, 3000u);
}

TEST(VaAllocator, MapsBackingPagesLazily)
{
    PageTable pt(kPageSize2M);
    VaAllocator alloc(pt, 0x2000'0000, 0x1000'0000);
    const VaRegion a = alloc.alloc(1024);
    EXPECT_TRUE(pt.is_mapped(a.base));
    // The next 2MB page is not mapped: crossing it faults (Fig. 4 #3).
    EXPECT_FALSE(pt.is_mapped(a.base + kPageSize2M));
}

TEST(Cache, HitAfterFill)
{
    CacheConfig cfg;
    cfg.size_bytes = 1024;
    cfg.assoc = 2;
    cfg.line_size = 64;
    Cache cache(cfg);
    EXPECT_FALSE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x13F, false).hit); // same line
    EXPECT_FALSE(cache.access(0x140, false).hit);
}

TEST(Cache, LruEviction)
{
    CacheConfig cfg;
    cfg.size_bytes = 2 * 64; // one set, two ways
    cfg.assoc = 2;
    cfg.line_size = 64;
    Cache cache(cfg);
    cache.access(0 * 64, false);
    cache.access(1 * 64, false);
    cache.access(0 * 64, false);      // touch way 0
    cache.access(2 * 64, false);      // evicts line 1 (LRU)
    EXPECT_TRUE(cache.probe(0 * 64));
    EXPECT_FALSE(cache.probe(1 * 64));
    EXPECT_TRUE(cache.probe(2 * 64));
}

TEST(Cache, DirtyWritebackReported)
{
    CacheConfig cfg;
    cfg.size_bytes = 64; // single line
    cfg.assoc = 1;
    cfg.line_size = 64;
    Cache cache(cfg);
    cache.access(0x000, true); // dirty fill
    const CacheAccessResult r = cache.access(0x100, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evicted_dirty);
    EXPECT_EQ(r.evicted_tag_addr, 0x000u);
}

TEST(Cache, HitRateStat)
{
    CacheConfig cfg;
    cfg.size_bytes = 1024;
    cfg.assoc = 4;
    cfg.line_size = 64;
    Cache cache(cfg);
    cache.access(0x0, false);
    cache.access(0x0, false);
    cache.access(0x0, false);
    cache.access(0x1000, false);
    EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(Tlb, PageGranularity)
{
    Tlb tlb(4, 4, kPageSize4K, "t");
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1FFF)); // same page
    EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Dram, CompletesRequests)
{
    EventQueue eq;
    DramConfig cfg;
    Dram dram(eq, cfg);
    int done = 0;
    ASSERT_TRUE(dram.enqueue(0x1000, false, [&] { ++done; }));
    ASSERT_TRUE(dram.enqueue(0x2000, false, [&] { ++done; }));
    eq.run_until(10'000);
    EXPECT_EQ(done, 2);
    EXPECT_TRUE(dram.idle());
}

TEST(Dram, RowHitFasterThanMiss)
{
    DramConfig cfg;
    cfg.channels = 1;

    // Two accesses to the same row: second is a row hit.
    EventQueue eq1;
    Dram d1(eq1, cfg);
    Cycle t_same = 0;
    ASSERT_TRUE(d1.enqueue(0x0, false, [] {}));
    ASSERT_TRUE(d1.enqueue(0x80, false, [&] { t_same = eq1.now(); }));
    eq1.run_until(10'000);

    // Two accesses to different rows in the same bank: row misses.
    EventQueue eq2;
    Dram d2(eq2, cfg);
    Cycle t_diff = 0;
    ASSERT_TRUE(d2.enqueue(0x0, false, [] {}));
    ASSERT_TRUE(d2.enqueue(cfg.row_bytes * cfg.banks_per_channel, false,
                            [&] { t_diff = eq2.now(); }));
    eq2.run_until(10'000);

    EXPECT_LT(t_same, t_diff);
    EXPECT_EQ(d1.stats().get("row_hits"), 1u);
    EXPECT_EQ(d2.stats().get("row_hits"), 0u);
}

TEST(Dram, FrFcfsPrefersOpenRow)
{
    DramConfig cfg;
    cfg.channels = 1;
    EventQueue eq;
    Dram dram(eq, cfg);
    std::vector<int> order;
    // First request opens row 0; then queue a row-1 and a row-0 request
    // while the channel is busy: FR-FCFS should pick the row-0 one
    // second despite arriving later.
    ASSERT_TRUE(dram.enqueue(0x0, false, [&] { order.push_back(0); }));
    ASSERT_TRUE(dram.enqueue(cfg.row_bytes * cfg.banks_per_channel, false,
                             [&] { order.push_back(1); }));
    ASSERT_TRUE(dram.enqueue(0x40, false, [&] { order.push_back(2); }));
    eq.run_until(100'000);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 2); // row hit serviced before older row miss
    EXPECT_EQ(order[2], 1);
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : pt_(kPageSize2M), alloc_(pt_, 0x2000'0000, 0x1000'0000)
    {
        MemHierConfig cfg;
        cfg.l1.size_bytes = 16 * 1024;
        cfg.l1.assoc = 4;
        cfg.l2.size_bytes = 256 * 1024;
        cfg.l2.assoc = 16;
        cfg.page_size = kPageSize2M;
        hier_ = std::make_unique<MemoryHierarchy>(eq_, pt_, cfg, 2);
        region_ = alloc_.alloc(1 << 20);
    }

    EventQueue eq_;
    PageTable pt_;
    VaAllocator alloc_;
    std::unique_ptr<MemoryHierarchy> hier_;
    VaRegion region_;
};

TEST_F(HierarchyTest, MissThenHit)
{
    int done = 0;
    const AccessIssue first =
        hier_->access(0, region_.base, false, [&] { ++done; });
    EXPECT_FALSE(first.l1_hit);
    EXPECT_FALSE(first.translation_fault);
    eq_.run_until(100'000);
    EXPECT_EQ(done, 1);

    const AccessIssue second =
        hier_->access(0, region_.base, false, [&] { ++done; });
    EXPECT_TRUE(second.l1_hit);
    eq_.run_until(200'000);
    EXPECT_EQ(done, 2);
}

TEST_F(HierarchyTest, L1IsPerCore)
{
    hier_->access(0, region_.base, false, [] {});
    eq_.run_until(100'000);
    const AccessIssue other_core =
        hier_->access(1, region_.base, false, [] {});
    EXPECT_FALSE(other_core.l1_hit); // core 1's L1 is cold
    eq_.run_until(200'000);
}

TEST_F(HierarchyTest, UnmappedAddressFaults)
{
    const AccessIssue issue =
        hier_->access(0, 0x7777'0000'0000ull, true, [] {});
    EXPECT_TRUE(issue.translation_fault);
}

TEST_F(HierarchyTest, L1HitIsFasterThanMiss)
{
    Cycle t_miss = 0, t_hit = 0;
    hier_->access(0, region_.base, false, [&] { t_miss = eq_.now(); });
    eq_.run_until(100'000);
    const Cycle start = eq_.now();
    hier_->access(0, region_.base, false, [&] { t_hit = eq_.now(); });
    eq_.run_until(200'000);
    EXPECT_LT(t_hit - start, t_miss);
}

TEST_F(HierarchyTest, PhysicalAccessCompletes)
{
    int done = 0;
    hier_->access_physical(0xE000'0000ull, [&] { ++done; });
    eq_.run_until(100'000);
    EXPECT_EQ(done, 1);
}

} // namespace
} // namespace gpushield

namespace gpushield {
namespace {

TEST_F(HierarchyTest, TlbHierarchyLatencyOrdering)
{
    // Warm data into L2 (so cache latency is constant) while touching
    // distinct pages to steer TLB hit levels.
    // 1st access: both TLBs miss (page walk). 2nd same page: L1 TLB hit.
    Cycle walk = 0, l1_hit = 0;
    hier_->access(0, region_.base, false, [&] { walk = eq_.now(); });
    eq_.run_until(100'000);
    const Cycle s1 = eq_.now();
    hier_->access(0, region_.base + 64, false,
                  [&] { l1_hit = eq_.now(); });
    eq_.run_until(200'000);
    EXPECT_LT(l1_hit - s1, walk); // page walk dominated the first trip
}

TEST_F(HierarchyTest, DirtyL2EvictionsCreateWritebackTraffic)
{
    // Fill the 256KB L2 with dirty lines then stream past it: DRAM
    // must see write requests for the evicted dirty lines.
    const std::uint64_t l2_bytes = 256 * 1024;
    for (std::uint64_t off = 0; off < 2 * l2_bytes; off += 128)
        hier_->access(0, region_.base + off, true, [] {});
    eq_.run_until(3'000'000);
    EXPECT_GT(hier_->l2().stats().get("writebacks"), 0u);
}

TEST(DramQueue, BackPressureRejectsWhenFull)
{
    // Regression: enqueue used to count queue_full but push anyway, so a
    // 4-deep queue happily held 64 requests. It must now reject.
    EventQueue eq;
    DramConfig cfg;
    cfg.channels = 1;
    cfg.queue_capacity = 4;
    Dram dram(eq, cfg);
    unsigned done = 0;
    unsigned accepted = 0;
    unsigned rejected = 0;
    for (int i = 0; i < 64; ++i) {
        if (dram.enqueue(static_cast<PAddr>(i) * 4096, false,
                         [&] { ++done; }))
            ++accepted;
        else
            ++rejected;
    }
    EXPECT_EQ(accepted, 4u);
    EXPECT_EQ(rejected, 60u);
    eq.run_until(1'000'000);
    EXPECT_TRUE(dram.idle());
    EXPECT_EQ(done, accepted);
    EXPECT_EQ(dram.stats().get("queue_full"), 60u);
    EXPECT_EQ(dram.stats().get("requests"), 4u); // only accepted ones
}

TEST(DramQueue, RejectedCallbackStaysUsable)
{
    // A rejected enqueue must not consume the callback: the caller
    // retries the same callback once the queue drains.
    EventQueue eq;
    DramConfig cfg;
    cfg.channels = 1;
    cfg.queue_capacity = 1;
    Dram dram(eq, cfg);
    unsigned done = 0;
    auto cb = [&] { ++done; };
    ASSERT_TRUE(dram.enqueue(0x1000, false, cb));
    Dram::Callback retry = cb;
    ASSERT_FALSE(dram.enqueue(0x2000, false, std::move(retry)));
    // Drain, then the retry succeeds with the original callback intact.
    eq.run_until(1'000'000);
    ASSERT_TRUE(dram.idle());
    ASSERT_TRUE(dram.enqueue(0x2000, false, std::move(retry)));
    eq.run_until(2'000'000);
    EXPECT_EQ(done, 2u);
}

TEST(DramDeathTest, ServiceLatencyBelowTwoCyclesPanics)
{
    // MemoryHierarchy batches DRAM retries one cycle ahead; that keeps
    // the event order exact only while no completion can land there.
    EventQueue eq;
    DramConfig cfg;
    cfg.row_hit_latency = 1;
    cfg.burst_cycles = 0;
    EXPECT_DEATH({ Dram dram(eq, cfg); }, "latency");
    cfg.burst_cycles = 1;
    Dram dram(eq, cfg);
    EXPECT_TRUE(dram.idle());
}

TEST(DramChannels, InterleavingSpreadsLoad)
{
    // With 16 channels, line-interleaved requests should finish much
    // faster than the same requests forced onto one channel. Capacity is
    // raised so back-pressure never rejects (128 land on one channel).
    auto run_channels = [](unsigned channels) {
        EventQueue eq;
        DramConfig cfg;
        cfg.channels = channels;
        cfg.queue_capacity = 128;
        Dram dram(eq, cfg);
        unsigned done = 0;
        for (int i = 0; i < 128; ++i)
            EXPECT_TRUE(dram.enqueue(static_cast<PAddr>(i) * 128, false,
                                     [&] { ++done; }));
        Cycle finish = 0;
        while (!dram.idle() && eq.now() < 1'000'000) {
            eq.step();
            finish = eq.now();
        }
        EXPECT_EQ(done, 128u);
        return finish;
    };
    const Cycle one = run_channels(1);
    const Cycle sixteen = run_channels(16);
    EXPECT_LT(sixteen * 4, one); // at least 4x faster with 16 channels
}

TEST(HierarchyBackPressure, RetriesUntilEveryAccessCompletes)
{
    // Hierarchy-level view of the same bug: with a tiny DRAM queue, a
    // burst of misses must still complete every access (via the 1-cycle
    // retry path) instead of overflowing the queue.
    EventQueue eq;
    PageTable pt(kPageSize2M);
    VaAllocator alloc(pt, 0x2000'0000, 0x1000'0000);
    MemHierConfig cfg;
    cfg.page_size = kPageSize2M;
    cfg.dram.channels = 1;
    cfg.dram.queue_capacity = 2;
    MemoryHierarchy hier(eq, pt, cfg, 1);
    const VaRegion region = alloc.alloc(1 << 20);

    unsigned done = 0;
    const unsigned n = 64;
    for (unsigned i = 0; i < n; ++i) {
        // Distinct lines so everything misses through to DRAM at once.
        const AccessIssue issue =
            hier.access(0, region.base + i * 4096, false, [&] { ++done; });
        ASSERT_FALSE(issue.translation_fault);
    }
    eq.run_until(10'000'000);
    EXPECT_EQ(done, n);
    EXPECT_GT(hier.stats().get("dram_retries"), 0u);
}

TEST(HierarchyBackPressure, RetriesKeepScheduleOrder)
{
    // Two channels, one slot each. Several misses are refused in one
    // cycle, other events are scheduled between two refusals (an
    // accepted miss's completion, and a probe for the next cycle), and
    // channel 1 frees while channel 0 stays full in the middle of a
    // retry pass. Every completion's order and cycle, the retry count
    // the probe sees, and both retry counters were captured with one
    // retry event per refused request per cycle; retrying in batches
    // must not move them.
    EventQueue eq;
    PageTable pt(kPageSize2M);
    MemHierConfig cfg;
    cfg.dram.channels = 2;
    cfg.dram.queue_capacity = 1;
    MemoryHierarchy hier(eq, pt, cfg, 1);

    // Lines alternate channels; every line below sits in row 0 of bank
    // 0 of its channel. Warm-up opens channel 1's row so that its next
    // requests are row hits and it frees well before channel 0.
    const auto line = [](unsigned n) { return static_cast<PAddr>(n) * 128; };
    hier.access_physical(line(1), [] {});
    eq.run_until(1000);
    ASSERT_TRUE(hier.dram().idle());

    std::vector<std::pair<char, Cycle>> done;
    const auto request = [&](char name, unsigned n) {
        hier.access_physical(line(n), [&, name] {
            done.emplace_back(name, eq.now());
        });
    };
    request('a', 0); // channel 0: accepted
    request('b', 2); // channel 0: refused
    request('c', 3); // channel 1: accepted, schedules its completion
    std::uint64_t retries_at_probe = 0;
    eq.schedule(1000 + cfg.l2_latency, [&] {
        eq.schedule_in(1, [&] {
            retries_at_probe = hier.stats().get("dram_retries");
        });
    });
    request('d', 4); // channel 0: refused
    request('e', 5); // channel 1: refused
    request('f', 7); // channel 1: refused
    eq.run_until(1000 + cfg.l2_latency);
    EXPECT_TRUE(hier.dram_backpressure());
    eq.run_until(10'000);

    const std::vector<std::pair<char, Cycle>> expected = {
        {'c', 1134}, {'e', 1178}, {'a', 1194},
        {'f', 1222}, {'b', 1238}, {'d', 1282}};
    EXPECT_EQ(done, expected);
    EXPECT_EQ(retries_at_probe, 5u);
    EXPECT_EQ(hier.stats().get("dram_retries"), 384u);
    EXPECT_EQ(hier.dram().stats().get("queue_full"), 384u);
    EXPECT_FALSE(hier.dram_backpressure());
}

} // namespace
} // namespace gpushield
