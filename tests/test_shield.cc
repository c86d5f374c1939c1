/**
 * @file
 * Unit tests for the GPUShield hardware components: pointer formats,
 * the ID cipher, the RBT, the RCache hierarchy, the BCU, and the
 * hardware cost model (Table 3).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "shield/cipher.h"
#include "shield/hwcost.h"
#include "shield/pointer.h"
#include "shield/rbt.h"
#include "shield/rcache.h"
#include "shield/region_backend.h"

namespace gpushield {
namespace {

// --- Pointer formats (Fig. 7) ---------------------------------------

TEST(Pointer, RoundTripFields)
{
    const VAddr addr = 0x2512'5460'00ull;
    const std::uint64_t p = make_tagged_ptr(addr, 0x1148);
    EXPECT_EQ(ptr_class(p), PtrClass::TaggedId);
    EXPECT_EQ(ptr_field(p), 0x1148);
    EXPECT_EQ(ptr_addr(p), addr);
}

TEST(Pointer, UnprotectedHasZeroClass)
{
    const std::uint64_t p = make_unprotected_ptr(0xABCDE);
    EXPECT_EQ(ptr_class(p), PtrClass::Unprotected);
    EXPECT_EQ(p, 0xABCDEull); // bit-identical to a plain address
}

TEST(Pointer, SizedWindowStoresLog2)
{
    const std::uint64_t p = make_sized_ptr(0x4000, 14);
    EXPECT_EQ(ptr_class(p), PtrClass::SizedWindow);
    EXPECT_EQ(ptr_field(p), 14);
}

TEST(Pointer, TagSurvivesOffsetArithmetic)
{
    const std::uint64_t p = make_tagged_ptr(0x1000, 0x3FFF);
    const std::uint64_t q = p + 0x123456; // pointer arithmetic
    EXPECT_EQ(ptr_class(q), PtrClass::TaggedId);
    EXPECT_EQ(ptr_field(q), 0x3FFF);
    EXPECT_EQ(ptr_addr(q), 0x1000u + 0x123456u);
}

TEST(Pointer, FieldMaskedTo14Bits)
{
    const std::uint64_t p = make_tagged_ptr(0, 0xFFFF);
    EXPECT_EQ(ptr_field(p), 0x3FFF);
}

// --- ID cipher (§5.2.4) ----------------------------------------------

TEST(Cipher, BijectionOverAll14BitIds)
{
    IdCipher cipher(0xFEEDFACE);
    std::set<std::uint16_t> images;
    for (std::uint32_t id = 0; id < kNumBufferIds; ++id) {
        const auto enc = cipher.encrypt(static_cast<std::uint16_t>(id));
        EXPECT_LT(enc, kNumBufferIds);
        images.insert(enc);
        EXPECT_EQ(cipher.decrypt(enc), id);
    }
    EXPECT_EQ(images.size(), kNumBufferIds); // bijective
}

TEST(Cipher, DifferentKeysGiveDifferentImages)
{
    IdCipher a(1), b(2);
    unsigned differing = 0;
    for (std::uint16_t id = 0; id < 1024; ++id)
        differing += a.encrypt(id) != b.encrypt(id);
    EXPECT_GT(differing, 900u); // nearly all ciphertexts change
}

TEST(Cipher, EncryptActuallyScrambles)
{
    IdCipher cipher(0x1234);
    unsigned moved = 0;
    for (std::uint16_t id = 0; id < 1024; ++id)
        moved += cipher.encrypt(id) != id;
    EXPECT_GT(moved, 1000u);
}

TEST(Cipher, RekeyChangesMapping)
{
    IdCipher cipher(111);
    const auto before = cipher.encrypt(42);
    cipher.rekey(222);
    EXPECT_NE(cipher.encrypt(42), before);
    EXPECT_EQ(cipher.decrypt(cipher.encrypt(42)), 42);
}

// --- RBT (Fig. 6, §5.2.3) --------------------------------------------

TEST(Rbt, RoundTripEntry)
{
    PhysicalMemory mem;
    RegionBoundsTable rbt(mem, 0xE000'0000ull);
    Bounds in;
    in.base_addr = 0x2512'5470'00ull;
    in.size = 64;
    in.valid = true;
    in.read_only = true;
    in.kernel = 0x9A1;
    rbt.set(0x1234, in);

    const Bounds out = rbt.get(0x1234);
    EXPECT_TRUE(out.valid);
    EXPECT_TRUE(out.read_only);
    EXPECT_EQ(out.base_addr, in.base_addr);
    EXPECT_EQ(out.size, in.size);
    EXPECT_EQ(out.kernel, in.kernel);
}

TEST(Rbt, UnsetEntriesInvalid)
{
    PhysicalMemory mem;
    RegionBoundsTable rbt(mem, 0xE000'0000ull);
    rbt.clear_all();
    EXPECT_FALSE(rbt.get(7).valid);
}

TEST(Rbt, EntryAddressing)
{
    PhysicalMemory mem;
    RegionBoundsTable rbt(mem, 0x1000);
    EXPECT_EQ(rbt.entry_paddr(0), 0x1000u);
    EXPECT_EQ(rbt.entry_paddr(3), 0x1000u + 3 * 16);
}

TEST(Rbt, BoundsContains)
{
    Bounds b;
    b.base_addr = 1000;
    b.size = 100;
    b.valid = true;
    EXPECT_TRUE(b.contains(1000, 4));
    EXPECT_TRUE(b.contains(1096, 4));
    EXPECT_FALSE(b.contains(1097, 4));
    EXPECT_FALSE(b.contains(999, 1));
    b.valid = false;
    EXPECT_FALSE(b.contains(1000, 1));
}

// --- RCache (§5.5) ----------------------------------------------------

Bounds
mk_bounds(VAddr base, std::uint32_t size, KernelId k = 1)
{
    Bounds b;
    b.base_addr = base;
    b.size = size;
    b.valid = true;
    b.kernel = k;
    return b;
}

TEST(RCache, MissThenL1Hit)
{
    RCache rc(RCacheConfig{});
    EXPECT_EQ(rc.lookup(1, 42).level, RCacheLevel::Miss);
    rc.fill(1, 42, mk_bounds(0x1000, 64));
    const RCacheResult r = rc.lookup(1, 42);
    EXPECT_EQ(r.level, RCacheLevel::L1);
    EXPECT_EQ(r.bounds.base_addr, 0x1000u);
}

TEST(RCache, L1FifoEviction)
{
    RCacheConfig cfg;
    cfg.l1_entries = 2;
    RCache rc(cfg);
    rc.fill(1, 10, mk_bounds(0x100, 4));
    rc.fill(1, 11, mk_bounds(0x200, 4));
    rc.fill(1, 12, mk_bounds(0x300, 4)); // evicts 10 from L1 (FIFO)
    EXPECT_EQ(rc.lookup(1, 12).level, RCacheLevel::L1);
    EXPECT_EQ(rc.lookup(1, 11).level, RCacheLevel::L1);
    // 10 fell out of L1 but is still in L2; an L2 hit promotes it.
    EXPECT_EQ(rc.lookup(1, 10).level, RCacheLevel::L2);
    EXPECT_EQ(rc.lookup(1, 10).level, RCacheLevel::L1);
}

TEST(RCache, L1IsTrueFifoHitDoesNotRefreshAge)
{
    // Regression: L1 claimed FIFO but shared the L2's LRU stamp, so an
    // L1 hit refreshed the entry's age and the *least-recently-used*
    // entry was evicted instead of the oldest-inserted one.
    RCacheConfig cfg;
    cfg.l1_entries = 2;
    RCache rc(cfg);
    rc.fill(1, 10, mk_bounds(0x100, 4)); // oldest insertion
    rc.fill(1, 11, mk_bounds(0x200, 4));
    EXPECT_EQ(rc.lookup(1, 10).level, RCacheLevel::L1); // hit: no refresh
    rc.fill(1, 12, mk_bounds(0x300, 4)); // FIFO must evict 10, not 11
    EXPECT_EQ(rc.lookup(1, 12).level, RCacheLevel::L1);
    EXPECT_EQ(rc.lookup(1, 11).level, RCacheLevel::L1);
    EXPECT_EQ(rc.lookup(1, 10).level, RCacheLevel::L2); // fell out of L1
}

TEST(RCache, L1EvictionsCounted)
{
    RCacheConfig cfg;
    cfg.l1_entries = 2;
    RCache rc(cfg);
    rc.fill(1, 10, mk_bounds(0x100, 4));
    rc.fill(1, 11, mk_bounds(0x200, 4));
    EXPECT_EQ(rc.stats().get("l1_evictions"), 0u); // filled empty ways
    rc.fill(1, 12, mk_bounds(0x300, 4));
    EXPECT_EQ(rc.stats().get("l1_evictions"), 1u);
}

TEST(RCache, InvalidateKernelKeepsOtherKernelsEntries)
{
    // Regression: kernel termination used to flush() the whole RCache,
    // evicting co-resident kernels' bounds (§6.2 keeps them).
    RCache rc(RCacheConfig{});
    rc.fill(1, 5, mk_bounds(0x100, 4, 1));
    rc.fill(2, 6, mk_bounds(0x200, 4, 2));
    rc.invalidate_kernel(1);
    EXPECT_EQ(rc.lookup(1, 5).level, RCacheLevel::Miss);
    EXPECT_EQ(rc.lookup(2, 6).level, RCacheLevel::L1);
}

TEST(RCache, KernelIdDisambiguates)
{
    RCache rc(RCacheConfig{});
    rc.fill(1, 5, mk_bounds(0x100, 4, 1));
    EXPECT_EQ(rc.lookup(2, 5).level, RCacheLevel::Miss);
    EXPECT_EQ(rc.lookup(1, 5).level, RCacheLevel::L1);
}

TEST(RCache, FlushEmptiesBothLevels)
{
    RCache rc(RCacheConfig{});
    rc.fill(1, 5, mk_bounds(0x100, 4));
    rc.flush();
    EXPECT_EQ(rc.lookup(1, 5).level, RCacheLevel::Miss);
}

TEST(RCache, L2LruKeepsHotEntries)
{
    RCacheConfig cfg;
    cfg.l1_entries = 1;
    cfg.l2_entries = 2;
    RCache rc(cfg);
    rc.fill(1, 1, mk_bounds(0x100, 4));
    rc.fill(1, 2, mk_bounds(0x200, 4));
    rc.lookup(1, 1);                     // touch 1 in L2 (via promote)
    rc.fill(1, 3, mk_bounds(0x300, 4));  // evicts LRU = 2
    rc.flush();
    // Rebuild to assert directly on hit levels: simpler to re-check via
    // stats — evictions happened exactly once.
    EXPECT_EQ(rc.stats().get("l2_evictions"), 1u);
}

TEST(RCache, HitRateStat)
{
    RCache rc(RCacheConfig{});
    rc.fill(1, 7, mk_bounds(0x100, 4));
    rc.lookup(1, 7);
    rc.lookup(1, 7);
    rc.lookup(1, 8); // miss
    EXPECT_NEAR(rc.l1_hit_rate(), 2.0 / 3.0, 1e-9);
}

// --- BCU (§5.5) --------------------------------------------------------

class BcuTest : public ::testing::Test
{
  protected:
    BcuTest() : rbt_(mem_, 0xE000'0000ull), bcu_(RCacheConfig{}, 2)
    {
        rbt_.clear_all();
        cipher_.rekey(kKey);
        bcu_.register_kernel(kKernel, kKey, &rbt_);

        Bounds b;
        b.base_addr = 0x1000;
        b.size = 256;
        b.valid = true;
        b.kernel = kKernel;
        rbt_.set(kId, b);

        Bounds ro = b;
        ro.base_addr = 0x2000;
        ro.read_only = true;
        rbt_.set(kRoId, ro);
    }

    BcuRequest
    req(VAddr lo, VAddr hi_end, bool store, std::uint16_t id)
    {
        BcuRequest r;
        r.kernel = kKernel;
        r.pointer = make_tagged_ptr(lo, cipher_.encrypt(id));
        r.min_addr = lo;
        r.max_end = hi_end;
        r.is_store = store;
        r.num_transactions = 1;
        r.dcache_hit = true;
        return r;
    }

    static constexpr KernelId kKernel = 3;
    static constexpr std::uint64_t kKey = 0xABCD;
    static constexpr BufferId kId = 77;
    static constexpr BufferId kRoId = 78;

    PhysicalMemory mem_;
    RegionBoundsTable rbt_;
    IdCipher cipher_{kKey};
    RegionShieldBackend bcu_;
};

TEST_F(BcuTest, InBoundsPasses)
{
    const BcuResponse r = bcu_.check(req(0x1000, 0x1100, true, kId));
    EXPECT_TRUE(r.checked);
    EXPECT_FALSE(r.violation);
}

TEST_F(BcuTest, OutOfBoundsDetected)
{
    const BcuResponse r = bcu_.check(req(0x1000, 0x1101, true, kId));
    EXPECT_TRUE(r.violation);
    EXPECT_EQ(r.kind, ViolationKind::OutOfBounds);
    ASSERT_EQ(bcu_.violations().size(), 1u);
    EXPECT_EQ(bcu_.violations()[0].kind, ViolationKind::OutOfBounds);
}

TEST_F(BcuTest, BelowBaseDetected)
{
    const BcuResponse r = bcu_.check(req(0xFFF, 0x1004, false, kId));
    EXPECT_TRUE(r.violation);
}

TEST_F(BcuTest, ReadOnlyWriteDetected)
{
    const BcuResponse r = bcu_.check(req(0x2000, 0x2004, true, kRoId));
    EXPECT_TRUE(r.violation);
    EXPECT_EQ(r.kind, ViolationKind::ReadOnlyWrite);
    // Reading the same buffer is fine.
    bcu_.clear_violations();
    const BcuResponse rd = bcu_.check(req(0x2000, 0x2004, false, kRoId));
    EXPECT_FALSE(rd.violation);
}

TEST_F(BcuTest, InvalidEntryForForgedId)
{
    BcuRequest r = req(0x1000, 0x1004, true, kId);
    r.pointer = make_tagged_ptr(0x1000, 0x2A2A); // forged field
    const BcuResponse resp = bcu_.check(r);
    EXPECT_TRUE(resp.violation);
    // A forged ID decrypts to a random index: invalid (or, with
    // astronomically small probability, another kernel's entry).
    EXPECT_TRUE(resp.kind == ViolationKind::InvalidEntry ||
                resp.kind == ViolationKind::KernelMismatch);
}

TEST_F(BcuTest, UnprotectedPointerSkipsCheck)
{
    BcuRequest r = req(0x9000, 0x9004, true, kId);
    r.pointer = make_unprotected_ptr(0x9000);
    const BcuResponse resp = bcu_.check(r);
    EXPECT_FALSE(resp.checked);
    EXPECT_FALSE(resp.violation);
}

TEST_F(BcuTest, FirstLookupRefillsThenHitsL1)
{
    const BcuResponse first = bcu_.check(req(0x1000, 0x1004, false, kId));
    EXPECT_TRUE(first.refill);
    EXPECT_EQ(first.refill_paddr, rbt_.entry_paddr(kId));
    const BcuResponse second = bcu_.check(req(0x1000, 0x1004, false, kId));
    EXPECT_FALSE(second.refill);
    EXPECT_EQ(bcu_.rcache().stats().get("l1_hits"), 1u);
}

TEST_F(BcuTest, StallOnlyWhenCheckExceedsShadow)
{
    // Warm the RCache: L1 hit, latency 1 <= slack 2 => no stall.
    bcu_.check(req(0x1000, 0x1004, false, kId));
    BcuRequest r = req(0x1000, 0x1004, false, kId);
    const BcuResponse l1hit = bcu_.check(r);
    EXPECT_EQ(l1hit.stall_cycles, 0u);

    // Multi-transaction requests widen the shadow: L2-latency checks
    // hide behind them.
    RCacheConfig cfg;
    cfg.l1_latency = 3; // exceeds the 2-cycle slack
    RegionShieldBackend slow(cfg, 2);
    slow.register_kernel(kKernel, kKey, &rbt_);
    slow.check(req(0x1000, 0x1004, false, kId)); // warm
    BcuRequest single = req(0x1000, 0x1004, false, kId);
    EXPECT_EQ(slow.check(single).stall_cycles, 1u);
    BcuRequest multi = req(0x1000, 0x1004, false, kId);
    multi.num_transactions = 2;
    EXPECT_EQ(slow.check(multi).stall_cycles, 0u);
    BcuRequest miss = req(0x1000, 0x1004, false, kId);
    miss.dcache_hit = false;
    EXPECT_EQ(slow.check(miss).stall_cycles, 0u);
}

TEST_F(BcuTest, FreedSlotReRegisteredRejectsStaleCapability)
{
    // Kernel A (kKernel under kKey) handed out a capability over its
    // buffer at 0x1000 and primed the RCache with the entry.
    const std::uint64_t stale =
        make_tagged_ptr(0x1000, cipher_.encrypt(kId));
    bcu_.check(req(0x1000, 0x1004, false, kId));

    // A finishes: the core deregisters it (dropping its RCache lines),
    // the driver clears the RBT window, and namespace slot kId plus the
    // kernel ID are recycled to a NEW kernel signing under a new key —
    // the service-mode teardown-reuse sequence.
    bcu_.deregister_kernel(kKernel);
    rbt_.clear_all();
    const std::uint64_t new_key = 0x1234'5678;
    Bounds nb;
    nb.base_addr = 0x8000;
    nb.size = 128;
    nb.valid = true;
    nb.kernel = kKernel;
    rbt_.set(kId, nb);
    bcu_.register_kernel(kKernel, new_key, &rbt_);

    // The stale capability must not validate against the re-registered
    // slot: decrypting A's ciphertext with the new key cannot name an
    // entry whose bounds cover A's old buffer.
    BcuRequest r;
    r.kernel = kKernel;
    r.pointer = stale;
    r.min_addr = 0x1000;
    r.max_end = 0x1004;
    r.is_store = true;
    r.num_transactions = 1;
    r.dcache_hit = true;
    const BcuResponse resp = bcu_.check(r);
    EXPECT_TRUE(resp.checked);
    EXPECT_TRUE(resp.violation);

    // The new kernel's own capability over the recycled slot is good.
    bcu_.clear_violations();
    IdCipher new_cipher(new_key);
    BcuRequest ok;
    ok.kernel = kKernel;
    ok.pointer = make_tagged_ptr(0x8000, new_cipher.encrypt(kId));
    ok.min_addr = 0x8000;
    ok.max_end = 0x8004;
    ok.is_store = true;
    ok.num_transactions = 1;
    ok.dcache_hit = true;
    EXPECT_FALSE(bcu_.check(ok).violation);
    EXPECT_TRUE(bcu_.violations().empty());
}

TEST_F(BcuTest, Type3OffsetCheck)
{
    BcuRequest r;
    r.kernel = kKernel;
    r.pointer = make_sized_ptr(0x4000, 8); // 256B window
    r.is_store = true;
    r.num_transactions = 1;
    r.dcache_hit = true;
    r.has_base_offset = true;
    r.min_offset = 0;
    r.max_offset_end = 256;
    r.min_addr = 0x4000;
    r.max_end = 0x4100;
    EXPECT_FALSE(bcu_.check(r).violation);

    r.max_offset_end = 257;
    EXPECT_TRUE(bcu_.check(r).violation);

    r.min_offset = -1;
    r.max_offset_end = 100;
    EXPECT_TRUE(bcu_.check(r).violation);
}

TEST_F(BcuTest, Type3NoRCacheTraffic)
{
    BcuRequest r;
    r.kernel = kKernel;
    r.pointer = make_sized_ptr(0x4000, 8);
    r.has_base_offset = true;
    r.min_offset = 0;
    r.max_offset_end = 16;
    r.min_addr = 0x4000;
    r.max_end = 0x4010;
    bcu_.check(r);
    EXPECT_EQ(bcu_.rcache().stats().get("lookups"), 0u);
}

TEST_F(BcuTest, DeregisterFlushesRCache)
{
    bcu_.check(req(0x1000, 0x1004, false, kId));
    bcu_.deregister_kernel(kKernel);
    bcu_.register_kernel(kKernel, kKey, &rbt_);
    const BcuResponse r = bcu_.check(req(0x1000, 0x1004, false, kId));
    EXPECT_TRUE(r.refill); // cold again after the flush
}

TEST_F(BcuTest, DeregisterKeepsCoResidentKernelEntries)
{
    // Regression: deregister_kernel used to flush the whole RCache, so a
    // terminating kernel evicted its co-resident kernels' cached bounds
    // and forced spurious RBT refills (§6.2).
    constexpr KernelId kOther = 4;
    constexpr BufferId kOtherId = 90;
    RegionBoundsTable other_rbt(mem_, 0xE100'0000ull);
    other_rbt.clear_all();
    Bounds b = mk_bounds(0x5000, 256, kOther);
    other_rbt.set(kOtherId, b);
    bcu_.register_kernel(kOther, kKey, &other_rbt);

    BcuRequest other = req(0x5000, 0x5004, false, kOtherId);
    other.kernel = kOther;
    EXPECT_TRUE(bcu_.check(other).refill); // cold: first touch refills
    EXPECT_FALSE(bcu_.check(other).refill);

    bcu_.deregister_kernel(kKernel); // the *other* kernel terminates
    const BcuResponse r = bcu_.check(other);
    EXPECT_FALSE(r.refill); // kOther's entry survived
    EXPECT_FALSE(r.violation);
}

// --- Hardware cost model (Table 3) ------------------------------------

TEST(HwCost, ReproducesTable3)
{
    const HwCostModel model;
    const auto rows = model.breakdown();
    ASSERT_EQ(rows.size(), 4u);

    EXPECT_EQ(rows[0].name, "Comparators");
    EXPECT_NEAR(rows[0].area_mm2, 0.0064, 1e-4);
    EXPECT_NEAR(rows[0].leakage_uw, 17.51, 0.01);
    EXPECT_NEAR(rows[0].dynamic_mw, 20.41, 0.01);

    EXPECT_EQ(rows[1].name, "L1 RCache");
    EXPECT_NEAR(rows[1].sram_bytes, 53.5, 0.01);
    EXPECT_NEAR(rows[1].area_mm2, 0.0060, 1e-4);

    EXPECT_EQ(rows[2].name, "L2 RCache tag");
    EXPECT_NEAR(rows[2].sram_bytes, 112, 0.01);
    EXPECT_NEAR(rows[2].area_mm2, 0.0166, 1e-4);

    EXPECT_EQ(rows[3].name, "L2 RCache data");
    EXPECT_NEAR(rows[3].sram_bytes, 744, 0.01);
    EXPECT_NEAR(rows[3].area_mm2, 0.0568, 1e-4);

    const StructureCost total = model.total();
    EXPECT_NEAR(total.sram_bytes, 909.5, 0.01);
    EXPECT_NEAR(total.area_mm2, 0.0858, 1e-4);
    EXPECT_NEAR(total.leakage_uw, 799.75, 0.05);
    EXPECT_NEAR(total.dynamic_mw, 203.36, 0.05);
}

TEST(HwCost, PerGpuTotalsMatchPaper)
{
    const HwCostModel model;
    // "14.2KB and 21.3KB for Nvidia and Intel" (16 and 24 cores).
    EXPECT_NEAR(model.total_kb(16), 14.2, 0.4);
    EXPECT_NEAR(model.total_kb(24), 21.3, 0.4);
}

TEST(HwCost, ScalesWithGeometry)
{
    HwCostConfig big;
    big.l1_entries = 8;
    const HwCostModel base, scaled(big);
    EXPECT_NEAR(scaled.breakdown()[1].area_mm2,
                2 * base.breakdown()[1].area_mm2, 1e-6);
    // Other rows unchanged.
    EXPECT_DOUBLE_EQ(scaled.breakdown()[2].area_mm2,
                     base.breakdown()[2].area_mm2);
}

TEST(HwCost, EntryBitWidths)
{
    const HwCostModel model;
    EXPECT_EQ(model.data_entry_bits(), 93u);  // 48+32+1+12
    EXPECT_EQ(model.l1_entry_bits(), 107u);   // +14 tag
}

} // namespace
} // namespace gpushield

namespace gpushield {
namespace {

// --- Fig. 12 stall formula, swept over the parameter space -------------

struct StallCase
{
    Cycle l1_latency, l2_latency, slack;
    bool warm;        // entry already in the L1 RCache
    unsigned ntrans;
    bool dcache_hit;
    Cycle expect;
};

class BcuStallFormula : public ::testing::TestWithParam<StallCase>
{
};

TEST_P(BcuStallFormula, ExposedBubbleMatchesModel)
{
    const StallCase c = GetParam();

    PhysicalMemory mem;
    RegionBoundsTable rbt(mem, 0xE0000000ull);
    rbt.clear_all();
    Bounds b;
    b.base_addr = 0x1000;
    b.size = 1 << 16;
    b.valid = true;
    b.kernel = 1;
    rbt.set(9, b);

    RCacheConfig cfg;
    cfg.l1_latency = c.l1_latency;
    cfg.l2_latency = c.l2_latency;
    RegionShieldBackend bcu(cfg, c.slack);
    bcu.register_kernel(1, 0x5EC, &rbt);
    IdCipher cipher(0x5EC);

    BcuRequest req;
    req.kernel = 1;
    req.pointer = make_tagged_ptr(0x1000, cipher.encrypt(9));
    req.min_addr = 0x1000;
    req.max_end = 0x1100;
    req.num_transactions = c.ntrans;
    req.dcache_hit = c.dcache_hit;

    if (c.warm) {
        BcuRequest warmup = req;
        warmup.dcache_hit = false; // warm without counting a stall
        bcu.check(warmup);
    }
    const BcuResponse resp = bcu.check(req);
    EXPECT_EQ(resp.stall_cycles, c.expect)
        << "l1=" << c.l1_latency << " l2=" << c.l2_latency
        << " slack=" << c.slack << " warm=" << c.warm
        << " ntrans=" << c.ntrans << " dhit=" << c.dcache_hit;
}

INSTANTIATE_TEST_SUITE_P(
    Fig12, BcuStallFormula,
    ::testing::Values(
        // Default config, L1 RCache hit: always hidden.
        StallCase{1, 3, 2, true, 1, true, 0},
        StallCase{2, 5, 2, true, 1, true, 0},
        // Latency 3 exceeds the 2-cycle shadow by 1.
        StallCase{3, 5, 2, true, 1, true, 1},
        StallCase{4, 6, 2, true, 1, true, 2},
        // D-cache miss hides everything.
        StallCase{3, 5, 2, true, 1, false, 0},
        StallCase{6, 9, 2, true, 1, false, 0},
        // Extra transactions widen the shadow.
        StallCase{3, 5, 2, true, 2, true, 0},
        StallCase{4, 6, 2, true, 3, true, 0},
        // Cold lookup (L2 RCache path): the paper's 1-cycle bubble on a
        // single-transaction D-cache hit.
        StallCase{1, 3, 2, false, 1, true, 1},
        StallCase{1, 5, 2, false, 1, true, 3},
        StallCase{1, 3, 2, false, 2, true, 0},
        StallCase{1, 3, 2, false, 1, false, 0},
        // Wider pipeline slack swallows deeper checks.
        StallCase{3, 6, 4, true, 1, true, 0},
        StallCase{1, 6, 4, false, 1, true, 2}));

// --- RCache geometry sweep ---------------------------------------------

class RCacheGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(RCacheGeometry, CapacityBoundsRespected)
{
    const auto [l1_entries, l2_entries] = GetParam();
    RCacheConfig cfg;
    cfg.l1_entries = l1_entries;
    cfg.l2_entries = l2_entries;
    RCache rc(cfg);

    Bounds b;
    b.valid = true;
    b.size = 64;
    b.kernel = 1;
    const unsigned total = l2_entries + 8;
    for (unsigned id = 1; id <= total; ++id) {
        b.base_addr = id * 0x100;
        rc.fill(1, static_cast<BufferId>(id), b);
    }
    // Exactly l2_entries + (L1-resident-but-L2-evicted) entries can hit;
    // at most l1 + l2 lookups succeed and the freshest always does.
    EXPECT_NE(rc.lookup(1, static_cast<BufferId>(total)).level,
              RCacheLevel::Miss);
    unsigned resident = 0;
    for (unsigned id = 1; id <= total; ++id)
        resident += rc.lookup(1, static_cast<BufferId>(id)).level !=
                    RCacheLevel::Miss;
    EXPECT_LE(resident, l1_entries + l2_entries);
    EXPECT_GE(resident, l2_entries > 8 ? l2_entries - 8 : 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RCacheGeometry,
                         ::testing::Values(std::pair{1u, 8u},
                                           std::pair{2u, 16u},
                                           std::pair{4u, 64u},
                                           std::pair{8u, 64u},
                                           std::pair{16u, 128u}));

} // namespace
} // namespace gpushield
