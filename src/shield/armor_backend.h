/**
 * @file
 * Armor shield backend: GPUArmor-style tagged-pointer checking.
 *
 * Second hardware point behind the ShieldBackend seam, modeled on
 * GPUArmor (PAPERS.md): the pointer's high bits carry a small plaintext
 * tag (no per-kernel cipher), and each kernel owns a small metadata
 * table of {tag, base, end, read_only} entries with extents rounded up
 * to `kArmorGranule`. A check passes iff some same-tag entry of the
 * issuing kernel contains the warp's coalesced range.
 *
 * Documented false-negative classes (counted separately by the
 * conformance oracle, like the region backend's Type 3 padding cover):
 *
 *  - granule slop: an overflow that stays inside the granule-rounded
 *    tail of its own region ("padding" lanes);
 *  - tag collision: an overflow that lands inside a *different*
 *    same-kernel region that happens to share the tag
 *    (`weakness_label` → "tag_collision").
 *
 * Timing model: a metadata-cache hit costs `cache_hit_latency`, a miss
 * walks the in-memory table (`table_latency`) and issues refill traffic
 * to the entry's physical slot; ShieldBackend's shared exposed-stall
 * rule decides how much of that the LSU pipeline hides.
 */

#ifndef GPUSHIELD_SHIELD_ARMOR_BACKEND_H
#define GPUSHIELD_SHIELD_ARMOR_BACKEND_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "shield/backend.h"

namespace gpushield {

/** Per-core Armor metadata-check unit. */
class ArmorShieldBackend : public ShieldBackend
{
  public:
    explicit ArmorShieldBackend(const ArmorShieldConfig &cfg,
                                Cycle pipeline_slack = 2);

    ShieldBackendKind kind() const override
    {
        return ShieldBackendKind::Armor;
    }
    const char *name() const override { return "armor"; }

    void register_kernel(const ShieldKernelDesc &desc) override;
    void deregister_kernel(KernelId kernel) override;
    StatSet metadata_stats() const override { return meta_stats_; }

    const char *
    weakness_label(const ShieldMissContext &ctx) const override;

  private:
    struct Entry
    {
        BufferId id = 0;
        std::uint16_t tag = 0;
        VAddr base = 0;
        VAddr end = 0; //!< granule-rounded one-past-end
        bool read_only = false;

        bool contains(VAddr lo, VAddr hi) const
        {
            return lo >= base && hi <= end;
        }
    };

    struct KernelState
    {
        const RegionBoundsTable *rbt = nullptr;
        std::vector<Entry> entries;
    };

    /** The tag match over the issuing kernel's metadata entries. */
    Cycle check_pointer(const BcuRequest &req, BcuResponse &resp) override;
    /** @p r as this backend sees it: tag masked to tag_bits, extent
     *  rounded up to kArmorGranule. */
    Entry entry_of(const ShieldRegionDesc &r) const;
    std::uint16_t tag_of(std::uint64_t pointer) const;
    /** FIFO metadata-entry cache probe; fills on miss. */
    bool cache_lookup(KernelId kernel, BufferId id);

    ArmorShieldConfig cfg_;
    std::uint16_t tag_mask_;
    std::unordered_map<KernelId, KernelState> kernels_;

    /** Single-level FIFO cache of recently used metadata entries. */
    struct CacheLine
    {
        KernelId kernel = 0;
        BufferId id = 0;
        bool valid = false;
    };
    std::vector<CacheLine> cache_;
    std::size_t cache_fifo_ = 0;

    StatSet meta_stats_;
    StatSet::Counter c_tag_checks_;
    StatSet::Counter c_lookups_, c_l1_hits_, c_l1_misses_, c_refills_;
};

} // namespace gpushield

#endif // GPUSHIELD_SHIELD_ARMOR_BACKEND_H
