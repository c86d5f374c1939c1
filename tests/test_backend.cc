/**
 * @file
 * ShieldBackend seam tests: the pluggable bounds-check hardware point.
 *
 * Pins down the two promises of the backend extraction:
 *
 *  1. Re-homing the region pipeline behind the virtual interface is
 *     invisible — the golden smoke grid stays byte-identical, and a
 *     factory-made region backend answers every request exactly like
 *     the concrete RegionShieldBackend.
 *  2. The Armor backend is a real second hardware point: granule-
 *     rounded extents, plaintext tag matching, per-kernel metadata
 *     tables with FIFO entry caching, the shared exposed-stall rule,
 *     and the documented tag-collision weakness surfaced through
 *     weakness_label rather than silently.
 *
 * Security regressions (stale capability after teardown reuse, cross-
 * kernel replay, the scripted cross-tenant service attacks) run through
 * the interface on both backends.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/executor.h"
#include "harness/suites.h"
#include "service/isolation.h"
#include "shield/armor_backend.h"
#include "shield/cipher.h"
#include "shield/pointer.h"
#include "shield/rbt.h"
#include "shield/region_backend.h"
#include "sim/gpu.h"
#include "workloads/kernels.h"

namespace gpushield {
namespace {

std::string
read_file(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// --- Factory + interface identity ------------------------------------

TEST(BackendFactory, SelectsConfiguredKind)
{
    ShieldConfig cfg;
    cfg.backend = ShieldBackendKind::Region;
    const auto region = make_shield_backend(cfg, 2);
    EXPECT_EQ(region->kind(), ShieldBackendKind::Region);
    EXPECT_STREQ(region->name(), "region");

    cfg.backend = ShieldBackendKind::Armor;
    const auto armor = make_shield_backend(cfg, 2);
    EXPECT_EQ(armor->kind(), ShieldBackendKind::Armor);
    EXPECT_STREQ(armor->name(), "armor");
}

TEST(BackendFactory, ParseRoundTrip)
{
    ShieldBackendKind k = ShieldBackendKind::Region;
    EXPECT_TRUE(parse_shield_backend("armor", k));
    EXPECT_EQ(k, ShieldBackendKind::Armor);
    EXPECT_TRUE(parse_shield_backend("region", k));
    EXPECT_EQ(k, ShieldBackendKind::Region);
    EXPECT_FALSE(parse_shield_backend("rcache", k));
    EXPECT_STREQ(to_string(ShieldBackendKind::Armor), "armor");
    EXPECT_STREQ(to_string(ShieldBackendKind::Region), "region");
}

// The refactor's core promise: running the smoke grid with the backend
// explicitly routed through the ShieldBackend seam reproduces the
// pre-refactor golden records byte-for-byte.
TEST(Backend, GoldenSmokeByteIdenticalThroughInterface)
{
    const std::string golden = read_file(
        std::string(GPUSHIELD_SOURCE_DIR) + "/tests/golden/smoke.jsonl");
    ASSERT_FALSE(golden.empty()) << "missing tests/golden/smoke.jsonl";

    harness::SweepSpec spec = harness::smoke_suite();
    for (auto &[cfg_name, cfg] : spec.configs)
        cfg.shield.backend = ShieldBackendKind::Region;

    harness::SweepOptions opts;
    opts.jobs = 1;
    const harness::SweepResult result = harness::run_sweep(spec, opts);
    EXPECT_TRUE(result.all_ok());

    std::ostringstream os;
    result.metrics.write_jsonl(os);
    EXPECT_EQ(os.str(), golden)
        << "smoke records diverged from golden through the interface";
}

// Each backend counts an entry-cache refill wherever the core counts a
// kernel's RBT refill: every check that asks for refill traffic is one
// refill (RCache fill on Region, metadata walk on Armor).
TEST(Backend, EntryCacheRefillsMatchKernelRefillsOnBothBackends)
{
    for (const ShieldBackendKind kind :
         {ShieldBackendKind::Region, ShieldBackendKind::Armor}) {
        harness::SweepSpec spec = harness::smoke_suite();
        for (auto &[cfg_name, cfg] : spec.configs)
            cfg.shield.backend = kind;
        harness::SweepOptions opts;
        opts.jobs = 1;
        const harness::SweepResult result = harness::run_sweep(spec, opts);
        ASSERT_TRUE(result.all_ok()) << to_string(kind);

        unsigned cells_with_refills = 0;
        for (const harness::RunRecord &r : result.metrics.records()) {
            // Multi-launch cells keep no per-kernel counters.
            if (!r.shield || r.launches != 1)
                continue;
            const std::uint64_t refills = r.kernel.get("rbt_refills");
            EXPECT_EQ(r.rcache.get("refills"), refills)
                << to_string(kind) << ": " << r.key;
            cells_with_refills += refills > 0;
        }
        EXPECT_GT(cells_with_refills, 0u) << to_string(kind);
    }
}

// --- Shared region fixture -------------------------------------------

class BackendTest : public ::testing::Test
{
  protected:
    BackendTest() : rbt_(mem_, 0xE000'0000ull)
    {
        rbt_.clear_all();
        Bounds b;
        b.base_addr = 0x1000;
        b.size = 256;
        b.valid = true;
        b.kernel = kKernel;
        rbt_.set(kId, b);
        regions_.push_back({kId, armor_ptr_tag(kId), b});

        Bounds ro = b;
        ro.base_addr = 0x2000;
        ro.read_only = true;
        rbt_.set(kRoId, ro);
        regions_.push_back({kRoId, armor_ptr_tag(kRoId), ro});
    }

    ShieldKernelDesc
    desc() const
    {
        ShieldKernelDesc d;
        d.kernel = kKernel;
        d.secret_key = kKey;
        d.rbt = &rbt_;
        d.regions = &regions_;
        return d;
    }

    static BcuRequest
    base_req(VAddr lo, VAddr hi_end, bool store)
    {
        BcuRequest r;
        r.kernel = kKernel;
        r.min_addr = lo;
        r.max_end = hi_end;
        r.is_store = store;
        r.num_transactions = 1;
        r.dcache_hit = true;
        return r;
    }

    BcuRequest
    region_req(VAddr lo, VAddr hi_end, bool store, BufferId id)
    {
        BcuRequest r = base_req(lo, hi_end, store);
        r.pointer = make_tagged_ptr(lo, cipher_.encrypt(id));
        return r;
    }

    static BcuRequest
    armor_req(VAddr lo, VAddr hi_end, bool store, BufferId id)
    {
        BcuRequest r = base_req(lo, hi_end, store);
        r.pointer = make_tagged_ptr(lo, armor_ptr_tag(id));
        return r;
    }

    static constexpr KernelId kKernel = 3;
    static constexpr std::uint64_t kKey = 0xABCD;
    static constexpr BufferId kId = 77;
    static constexpr BufferId kRoId = 78;

    PhysicalMemory mem_;
    RegionBoundsTable rbt_;
    IdCipher cipher_{kKey};
    std::vector<ShieldRegionDesc> regions_;
};

// A factory-made region backend and the concrete class answer the same
// requests identically — virtual dispatch changes nothing.
TEST_F(BackendTest, RegionVirtualMatchesConcrete)
{
    RegionShieldBackend concrete(RCacheConfig{}, 2);
    concrete.register_kernel(kKernel, kKey, &rbt_);

    const auto virt = make_shield_backend(ShieldConfig{}, 2);
    virt->register_kernel(desc());

    const auto probe = [&](const BcuRequest &r) {
        const BcuResponse a = concrete.check(r);
        BcuRequest copy = r;
        const BcuResponse b = virt->check(copy);
        EXPECT_EQ(a.checked, b.checked);
        EXPECT_EQ(a.violation, b.violation);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.stall_cycles, b.stall_cycles);
        EXPECT_EQ(a.refill, b.refill);
        EXPECT_EQ(a.refill_paddr, b.refill_paddr);
    };
    probe(region_req(0x1000, 0x1100, true, kId));  // in bounds
    probe(region_req(0x1000, 0x1101, true, kId));  // out of bounds
    probe(region_req(0x2000, 0x2004, true, kRoId)); // read-only write
    probe(region_req(0x1000, 0x1004, false, kId)); // warm RCache
    EXPECT_EQ(concrete.violations().size(), virt->violations().size());
    EXPECT_EQ(concrete.stats().get("checks"),
              virt->stats().get("checks"));
    EXPECT_EQ(concrete.metadata_stats().get("lookups"),
              virt->metadata_stats().get("lookups"));
}

// --- Armor behaviour --------------------------------------------------

class ArmorTest : public BackendTest
{
  protected:
    ArmorTest() : armor_(ArmorShieldConfig{}, 2)
    {
        armor_.register_kernel(desc());
    }

    ArmorShieldBackend armor_;
};

TEST_F(ArmorTest, InBoundsPasses)
{
    const BcuResponse r = armor_.check(armor_req(0x1000, 0x1100, true, kId));
    EXPECT_TRUE(r.checked);
    EXPECT_FALSE(r.violation);
}

TEST_F(ArmorTest, GranuleSlopIsInsideTheCheckedRegion)
{
    // The 256-byte buffer's metadata extent rounds up to kArmorGranule:
    // an access in [0x1100, 0x1200) is the documented slop — no
    // violation from this hardware point.
    const BcuResponse slop =
        armor_.check(armor_req(0x1100, 0x1200, true, kId));
    EXPECT_TRUE(slop.checked);
    EXPECT_FALSE(slop.violation);

    // One byte past the rounded extent violates.
    const BcuResponse oob =
        armor_.check(armor_req(0x11FF, 0x1201, true, kId));
    EXPECT_TRUE(oob.violation);
    EXPECT_EQ(oob.kind, ViolationKind::OutOfBounds);
    EXPECT_TRUE(oob.region_known);
    EXPECT_EQ(oob.region_base, 0x1000u);
    EXPECT_EQ(oob.region_end, 0x1000u + kArmorGranule);
}

TEST_F(ArmorTest, ReadOnlyWriteDetected)
{
    const BcuResponse wr =
        armor_.check(armor_req(0x2000, 0x2004, true, kRoId));
    EXPECT_TRUE(wr.violation);
    EXPECT_EQ(wr.kind, ViolationKind::ReadOnlyWrite);
    const BcuResponse rd =
        armor_.check(armor_req(0x2000, 0x2004, false, kRoId));
    EXPECT_FALSE(rd.violation);
}

TEST_F(ArmorTest, ForgedTagIsInvalidEntry)
{
    BcuRequest r = base_req(0x1000, 0x1004, true);
    // A tag value no installed region carries.
    std::uint16_t forged = 1;
    const auto tag_in_use = [&](std::uint16_t t) {
        for (const ShieldRegionDesc &d : regions_)
            if ((d.tag & 0x7F) == (t & 0x7F))
                return true;
        return false;
    };
    while (tag_in_use(forged))
        ++forged;
    r.pointer = make_tagged_ptr(0x1000, forged);
    const BcuResponse resp = armor_.check(r);
    EXPECT_TRUE(resp.violation);
    EXPECT_EQ(resp.kind, ViolationKind::InvalidEntry);
}

TEST_F(ArmorTest, UnprotectedPointerSkipsCheck)
{
    BcuRequest r = base_req(0x9000, 0x9004, true);
    r.pointer = make_unprotected_ptr(0x9000);
    const BcuResponse resp = armor_.check(r);
    EXPECT_FALSE(resp.checked);
    EXPECT_FALSE(resp.violation);
    EXPECT_EQ(armor_.stats().get("skipped_unprotected"), 1u);
}

TEST_F(ArmorTest, MetadataCacheRefillsThenHits)
{
    const BcuResponse first =
        armor_.check(armor_req(0x1000, 0x1004, false, kId));
    EXPECT_TRUE(first.refill);
    EXPECT_EQ(first.refill_paddr, rbt_.entry_paddr(kId));
    const BcuResponse second =
        armor_.check(armor_req(0x1000, 0x1004, false, kId));
    EXPECT_FALSE(second.refill);
    EXPECT_EQ(armor_.metadata_stats().get("l1_hits"), 1u);
    EXPECT_EQ(armor_.metadata_stats().get("l1_misses"), 1u);
}

TEST_F(ArmorTest, StallOnlyWhenWalkExceedsShadow)
{
    // Cold: table walk (3) against slack 2 => 1 exposed cycle.
    const BcuResponse cold =
        armor_.check(armor_req(0x1000, 0x1004, false, kId));
    EXPECT_EQ(cold.stall_cycles, 1u);
    // Warm: cache hit (1) hides entirely.
    const BcuResponse warm =
        armor_.check(armor_req(0x1000, 0x1004, false, kId));
    EXPECT_EQ(warm.stall_cycles, 0u);
    // D-cache miss shadows everything.
    ArmorShieldBackend fresh(ArmorShieldConfig{}, 2);
    fresh.register_kernel(desc());
    BcuRequest miss = armor_req(0x1000, 0x1004, false, kId);
    miss.dcache_hit = false;
    EXPECT_EQ(fresh.check(miss).stall_cycles, 0u);
}

TEST_F(ArmorTest, TagCollisionAbsorbsAndIsLabeled)
{
    // Two same-kernel regions forced onto one masked tag: a capability
    // over the first reaches the second undetected — Armor's documented
    // weakness — and weakness_label classifies exactly that miss.
    std::vector<ShieldRegionDesc> collide;
    Bounds a;
    a.base_addr = 0x4000;
    a.size = 512;
    a.valid = true;
    a.kernel = kKernel;
    Bounds b = a;
    b.base_addr = 0x6000;
    collide.push_back({10, 0x21, a});
    collide.push_back({11, 0x21, b}); // same tag, different region
    ShieldKernelDesc d;
    d.kernel = kKernel;
    d.rbt = &rbt_;
    d.regions = &collide;
    ArmorShieldBackend armor(ArmorShieldConfig{}, 2);
    armor.register_kernel(d);

    BcuRequest r = base_req(0x6000, 0x6004, true);
    r.pointer = make_tagged_ptr(0x6000, 0x21); // derived from region A
    const BcuResponse resp = armor.check(r);
    EXPECT_TRUE(resp.checked);
    EXPECT_FALSE(resp.violation) << "collision is absorbed by design";

    ShieldMissContext ctx;
    ctx.pointer = r.pointer;
    ctx.kernel = kKernel;
    ctx.min_addr = 0x6000;
    ctx.max_end = 0x6004;
    ctx.regions = &collide;
    EXPECT_STREQ(armor.weakness_label(ctx), "tag_collision");

    // A range no same-tag entry contains is NOT a collision: it both
    // faults and classifies as a hard miss (nullptr).
    BcuRequest far = base_req(0x9000, 0x9004, true);
    far.pointer = make_tagged_ptr(0x9000, 0x21);
    EXPECT_TRUE(armor.check(far).violation);
    ShieldMissContext hard = ctx;
    hard.min_addr = 0x9000;
    hard.max_end = 0x9004;
    EXPECT_EQ(armor.weakness_label(hard), nullptr);
}

TEST_F(ArmorTest, RegionWeaknessLabelOnlyCoversType3)
{
    const auto region = make_shield_backend(ShieldConfig{}, 2);
    ShieldMissContext ctx;
    ctx.pointer = make_sized_ptr(0x1000, 8);
    ctx.min_addr = 0x1100;
    ctx.max_end = 0x1104;
    ctx.regions = &regions_;
    EXPECT_STREQ(region->weakness_label(ctx), "type3_weak");
    ctx.pointer = make_tagged_ptr(0x1000, 0x42);
    EXPECT_EQ(region->weakness_label(ctx), nullptr);
    ctx.pointer = make_sized_ptr(0x1000, 8);
    ctx.has_bt = true;
    EXPECT_EQ(region->weakness_label(ctx), nullptr);
}

// --- Teardown-reuse + replay regressions through the interface --------

TEST_F(BackendTest, StaleCapabilityRejectedOnBothBackends)
{
    for (const ShieldBackendKind kind :
         {ShieldBackendKind::Region, ShieldBackendKind::Armor}) {
        ShieldConfig cfg;
        cfg.backend = kind;
        const auto backend = make_shield_backend(cfg, 2);
        backend->register_kernel(desc());

        // Kernel A hands out a capability and primes the metadata cache.
        const std::uint64_t stale =
            kind == ShieldBackendKind::Region
                ? make_tagged_ptr(0x1000, cipher_.encrypt(kId))
                : make_tagged_ptr(0x1000, armor_ptr_tag(kId));
        BcuRequest prime = base_req(0x1000, 0x1004, false);
        prime.pointer = stale;
        EXPECT_FALSE(backend->check(prime).violation);

        // Teardown-reuse: A deregisters, the RBT window clears, and the
        // slot is recycled to a NEW kernel over a different buffer.
        backend->deregister_kernel(kKernel);
        rbt_.clear_all();
        Bounds nb;
        nb.base_addr = 0x8000;
        nb.size = 128;
        nb.valid = true;
        nb.kernel = kKernel;
        rbt_.set(kRoId, nb);
        std::vector<ShieldRegionDesc> fresh;
        fresh.push_back({kRoId, armor_ptr_tag(kRoId), nb});
        ShieldKernelDesc d;
        d.kernel = kKernel;
        d.secret_key = 0x1234'5678;
        d.rbt = &rbt_;
        d.regions = &fresh;
        backend->register_kernel(d);

        // The stale capability must not validate against the recycled
        // slot on either hardware point.
        BcuRequest replay = base_req(0x1000, 0x1004, true);
        replay.pointer = stale;
        const BcuResponse resp = backend->check(replay);
        EXPECT_TRUE(resp.checked) << to_string(kind);
        EXPECT_TRUE(resp.violation) << to_string(kind);

        // The new kernel's own capability over the slot is good.
        backend->clear_violations();
        BcuRequest ok = base_req(0x8000, 0x8004, false);
        ok.pointer = kind == ShieldBackendKind::Region
                         ? make_tagged_ptr(
                               0x8000, IdCipher(0x1234'5678).encrypt(kRoId))
                         : make_tagged_ptr(0x8000, armor_ptr_tag(kRoId));
        EXPECT_FALSE(backend->check(ok).violation) << to_string(kind);
        rbt_.clear_all();
    }
}

TEST_F(ArmorTest, CrossKernelReplayDoesNotLeakBounds)
{
    // A second kernel with its own (different-tag) region: replaying
    // kernel 3's capability under kernel 9 consults kernel 9's table
    // only, so the access faults instead of inheriting 3's bounds.
    constexpr KernelId kOther = 9;
    Bounds ob;
    ob.base_addr = 0x7000;
    ob.size = 64;
    ob.valid = true;
    ob.kernel = kOther;
    std::vector<ShieldRegionDesc> other;
    other.push_back({kRoId, armor_ptr_tag(kRoId), ob});
    ShieldKernelDesc d;
    d.kernel = kOther;
    d.rbt = &rbt_;
    d.regions = &other;
    armor_.register_kernel(d);

    BcuRequest replay = armor_req(0x1000, 0x1004, true, kId);
    replay.kernel = kOther;
    const BcuResponse resp = armor_.check(replay);
    EXPECT_TRUE(resp.checked);
    EXPECT_TRUE(resp.violation);
}

// --- One backend per GPU ----------------------------------------------

TEST(Backend, GpuRefusesLaunchSignedForTheOtherKind)
{
    // Each core holds only the configured backend, so a kernel whose
    // pointers were signed for the other kind is refused and its IDs go
    // back to its driver. A shield-off launch carries no signature.
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 2;
    GpuDevice dev(cfg.mem.page_size);
    Driver driver(dev);
    driver.set_shield_backend(ShieldBackendKind::Armor);
    workloads::PatternParams p;
    p.name = "signed";
    p.inputs = 1;
    const KernelProgram prog = workloads::make_streaming(p);
    LaunchConfig lc;
    lc.program = &prog;
    lc.ntid = 32;
    for (std::size_t a = 0; a < prog.args.size(); ++a)
        if (prog.args[a].is_pointer)
            lc.buffers.push_back(driver.create_buffer(32 * 4));

    Gpu gpu(cfg, driver);
    EXPECT_THROW(gpu.launch(driver.launch(lc)), SimulationError);
    EXPECT_EQ(driver.ids_in_use(), 0u);
    lc.shield_enabled = false;
    const std::size_t idx = gpu.launch(driver.launch(lc));
    gpu.run();
    EXPECT_FALSE(gpu.result(idx).aborted);
}

// --- Service attack battery on both backends --------------------------

TEST(Backend, ServiceAttackBatteryContainedOnBothBackends)
{
    for (const ShieldBackendKind kind :
         {ShieldBackendKind::Region, ShieldBackendKind::Armor}) {
        service::ServiceConfig base;
        base.gpu.shield.backend = kind;
        const service::IsolationReport report =
            service::run_isolation_suite(base);
        EXPECT_FALSE(report.outcomes.empty());
        for (const service::AttackOutcome &o : report.outcomes)
            EXPECT_TRUE(o.contained)
                << to_string(kind) << ": " << o.name << ": " << o.detail;
    }
}

} // namespace
} // namespace gpushield
