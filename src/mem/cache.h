/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * Timing is owned by the memory hierarchy; this class answers hit/miss
 * questions and tracks replacement state. It is reused for the L1 data
 * cache, the shared L2, and (via Tlb) the translation caches.
 *
 * The ways are stored as arrays per field, so a probe reads only the
 * tag keys of its set (a 64-way TLB set is 8 host cache lines, not 24).
 * Set and tag come from shifts and masks: the geometry is checked to be
 * powers of two at construction.
 */

#ifndef GPUSHIELD_MEM_CACHE_H
#define GPUSHIELD_MEM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace gpushield {

/** Configuration of a set-associative array. */
struct CacheConfig
{
    std::uint64_t size_bytes = 16 * 1024;
    unsigned assoc = 4;
    std::uint64_t line_size = kLineSize;
    std::string name = "cache";
};

/** Outcome of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Valid line evicted to make room (for write-back accounting). */
    bool evicted_dirty = false;
    VAddr evicted_tag_addr = 0;
};

/** Generic set-associative, LRU, write-back cache tag array. */
class Cache
{
  public:
    /** @throws std::invalid_argument when the line size or the number
     *  of sets is not a power of two, or the geometry is empty or not
     *  divisible by the associativity. */
    explicit Cache(const CacheConfig &cfg);

    /**
     * Performs an access: on hit, updates LRU; on miss, fills the line
     * (victim chosen by LRU) — a simple allocate-on-miss model.
     *
     * @param addr     byte address of the access
     * @param is_write marks the line dirty on hit/fill
     */
    CacheAccessResult access(std::uint64_t addr, bool is_write);

    /** Probes without updating any state. */
    bool probe(std::uint64_t addr) const;

    const CacheConfig &config() const { return cfg_; }
    const StatSet &stats() const { return stats_; }
    StatSet &stats() { return stats_; }

    /** Hit ratio over the lifetime of the cache. */
    double
    hit_rate() const
    {
        return stats_.ratio("hits", "accesses");
    }

  private:
    /** The way of set @p set holding @p key, or assoc when none does. */
    unsigned find(std::uint64_t set, std::uint64_t key) const;

    CacheConfig cfg_;
    unsigned line_shift_;  //!< log2(line size)
    unsigned set_bits_;    //!< log2(number of sets)
    // Per way, num_sets * assoc entries, set-major. A key is the tag
    // plus one, and 0 marks an invalid way.
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> lru_; //!< last-touched stamp
    std::vector<std::uint8_t> dirty_;
    std::uint64_t stamp_ = 0;
    StatSet stats_;
    // Interned per-access counters (resolved once; bumped per event).
    StatSet::Counter c_accesses_, c_writes_, c_hits_, c_misses_,
        c_writebacks_;
};

} // namespace gpushield

#endif // GPUSHIELD_MEM_CACHE_H
