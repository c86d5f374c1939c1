// Host micro-timings of one ShieldBackend::check call, on backends built
// through make_shield_backend exactly as the cores build them.

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "mem/physical_memory.h"
#include "passes.h"
#include "shield/backend.h"
#include "shield/cipher.h"
#include "shield/pointer.h"
#include "shield/rbt.h"

namespace perfbench {

using namespace gpushield;

namespace {

constexpr KernelId kKernel = 1;
constexpr std::uint64_t kKey = 0x5EED5EEDull;
// More IDs than the default RCache holds (4 L1 + 64 L2 entries), so a
// round-robin walk over them misses every level on every check.
constexpr BufferId kIds = 128;
constexpr VAddr kRegionBytes = 1 << 16;
constexpr int kChecksPerBatch = 20000;
constexpr int kBatches = 15;

VAddr
region_base(BufferId id)
{
    return 0x100000000ull + static_cast<VAddr>(id) * kRegionBytes;
}

struct Fixture
{
    PhysicalMemory mem;
    RegionBoundsTable rbt{mem, 0xE0000000ull};
    std::vector<ShieldRegionDesc> regions;

    Fixture()
    {
        rbt.clear_all();
        for (BufferId id = 1; id <= kIds; ++id) {
            ShieldRegionDesc d;
            d.id = id;
            d.tag = armor_ptr_tag(id);
            d.bounds.base_addr = region_base(id);
            d.bounds.size = kRegionBytes;
            d.bounds.valid = true;
            d.bounds.kernel = kKernel;
            rbt.set(id, d.bounds);
            regions.push_back(d);
        }
    }
};

/**
 * Median nanoseconds per check over kBatches batches. @p ids lists the
 * buffer IDs the requests walk round-robin; @p tag maps an ID to the
 * pointer field. Throws if any check is not performed, flags a
 * violation, or (with @p want_refill) does not refill.
 */
template <typename Tag>
double
time_checks(ShieldBackend &backend, const std::vector<BufferId> &ids,
            Tag tag, bool want_refill)
{
    std::vector<BcuRequest> reqs;
    for (const BufferId id : ids) {
        BcuRequest req;
        req.kernel = kKernel;
        req.pointer = make_tagged_ptr(region_base(id), tag(id));
        req.min_addr = region_base(id) + 128;
        req.max_end = req.min_addr + 128;
        req.dcache_hit = true;
        reqs.push_back(req);
    }
    std::vector<double> per_check;
    std::size_t next = 0;
    for (int b = 0; b < kBatches; ++b) {
        bool ok = true;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kChecksPerBatch; ++i) {
            const BcuResponse resp = backend.check(reqs[next]);
            ok &= resp.checked && !resp.violation &&
                  (!want_refill || resp.refill);
            next = next + 1 == reqs.size() ? 0 : next + 1;
        }
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        // The first batch may start on entries an earlier measurement
        // left cached.
        if (!ok && b > 0)
            throw std::runtime_error(
                std::string("shield micro-benchmark: unexpected verdict from ") +
                backend.name());
        per_check.push_back(s * 1e9 / kChecksPerBatch);
    }
    std::sort(per_check.begin(), per_check.end());
    return per_check[per_check.size() / 2];
}

} // namespace

void
add_shield_micro_metrics(Metrics &out)
{
    Fixture fx;
    std::vector<BufferId> all;
    for (BufferId id = 1; id <= kIds; ++id)
        all.push_back(id);
    const IdCipher cipher(kKey);
    const auto encrypted = [&](BufferId id) { return cipher.encrypt(id); };

    ShieldConfig cfg;
    cfg.backend = ShieldBackendKind::Region;
    std::unique_ptr<ShieldBackend> region = make_shield_backend(cfg, 2);
    region->register_kernel({kKernel, kKey, &fx.rbt, &fx.regions});
    out["shield.region_check_ns"] = Metric{
        time_checks(*region, {7}, encrypted, false), "ns", ""};
    out["shield.region_refill_check_ns"] = Metric{
        time_checks(*region, all, encrypted, true), "ns", ""};

    // Armor matches tags by scanning the kernel's region list, so give
    // it a kernel-sized list rather than all kIds regions.
    const std::vector<ShieldRegionDesc> few(fx.regions.begin(),
                                            fx.regions.begin() + 8);
    cfg.backend = ShieldBackendKind::Armor;
    std::unique_ptr<ShieldBackend> armor = make_shield_backend(cfg, 2);
    armor->register_kernel({kKernel, kKey, &fx.rbt, &few});
    out["shield.armor_check_ns"] = Metric{
        time_checks(*armor, {7}, armor_ptr_tag, false), "ns", ""};
}

} // namespace perfbench
