/**
 * @file
 * RBT cache (RCache) hierarchy (§5.5).
 *
 * Each core's BCU embeds a tiny two-level cache of RBT entries: a
 * 4-entry FIFO L1 with parallel tag/data lookup, and a 64-entry fully
 * associative L2 split into tag and data arrays. Entries are matched on
 * (kernel ID, buffer ID) so concurrently resident kernels can share a
 * core (§6.2). Kernel termination invalidates only the terminating
 * kernel's entries (co-resident kernels keep their cached bounds);
 * context switches flush everything.
 */

#ifndef GPUSHIELD_SHIELD_RCACHE_H
#define GPUSHIELD_SHIELD_RCACHE_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "shield/rbt.h"

namespace gpushield {

/** RCache geometry and latencies (latencies are from AGEN, in cycles). */
struct RCacheConfig
{
    unsigned l1_entries = 4;
    unsigned l2_entries = 64;
    Cycle l1_latency = 1; //!< check completes this many cycles after AGEN
    Cycle l2_latency = 3; //!< L1 miss, L2 tag + data access

    /**
     * §6.2 intra-core sharing mitigation: bank-level partitioning.
     * With P > 1 the RCache is replicated P times (the paper's
     * "double and partition") and each kernel hashes to one bank, so
     * co-resident kernels stop evicting each other's bounds metadata.
     */
    unsigned partitions = 1;
};

/** Where a lookup was satisfied. */
enum class RCacheLevel : std::uint8_t { L1, L2, Miss };

/** Lookup outcome. */
struct RCacheResult
{
    RCacheLevel level = RCacheLevel::Miss;
    Bounds bounds; //!< valid only when level != Miss
};

/** Per-core two-level RBT cache. */
class RCache
{
  public:
    explicit RCache(const RCacheConfig &cfg);

    /**
     * Looks up bounds for @p id of kernel @p kernel. An L2 hit promotes
     * the entry into the L1 FIFO.
     */
    RCacheResult lookup(KernelId kernel, BufferId id);

    /** Inserts a refilled RBT entry (L2 + L1). */
    void fill(KernelId kernel, BufferId id, const Bounds &bounds);

    /** Drops everything (context switch, §5.5). */
    void flush();

    /**
     * Drops only @p kernel's entries (kernel termination, §5.5) so
     * concurrently-resident kernels keep their cached bounds (§6.2).
     */
    void invalidate_kernel(KernelId kernel);

    const RCacheConfig &config() const { return cfg_; }
    const StatSet &stats() const { return stats_; }

    /** L1 hit fraction among lookups. */
    double
    l1_hit_rate() const
    {
        return stats_.ratio("l1_hits", "lookups");
    }

  private:
    struct Entry
    {
        bool valid = false;
        KernelId kernel = 0;
        BufferId id = 0;
        Bounds bounds;
        std::uint64_t stamp = 0; //!< insertion order (L1) / LRU stamp (L2)
    };

    struct Bank
    {
        std::vector<Entry> l1;
        std::vector<Entry> l2;
        /** L1 insertion-order clock (FIFO; separate from the LRU clock
         *  so hits can never refresh an L1 entry's age). */
        std::uint64_t l1_fifo_stamp = 0;
    };

    Bank &bank_for(KernelId kernel);
    Entry *find(std::vector<Entry> &arr, KernelId kernel, BufferId id);
    void insert_l1(Bank &bank, KernelId kernel, BufferId id,
                   const Bounds &bounds);
    void insert_l2(Bank &bank, KernelId kernel, BufferId id,
                   const Bounds &bounds);

    RCacheConfig cfg_;
    std::vector<Bank> banks_;
    std::uint64_t lru_stamp_ = 0; //!< L2 LRU clock
    StatSet stats_;
    // Interned per-lookup counters (resolved once; bumped per event).
    StatSet::Counter c_lookups_, c_l1_hits_, c_l1_misses_, c_l2_hits_,
        c_l2_misses_, c_l1_evictions_, c_l2_evictions_, c_refills_;
};

} // namespace gpushield

#endif // GPUSHIELD_SHIELD_RCACHE_H
