/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * Timing is owned by the memory hierarchy; this class answers hit/miss
 * questions and tracks replacement state. It is reused for the L1 data
 * cache, the shared L2, and (via Tlb) the translation caches.
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
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t lru = 0; //!< last-touched stamp
    };

    std::uint64_t set_index(std::uint64_t addr) const;
    std::uint64_t tag_of(std::uint64_t addr) const;

    CacheConfig cfg_;
    std::uint64_t num_sets_;
    std::vector<Line> lines_; //!< num_sets_ * assoc, set-major
    std::uint64_t stamp_ = 0;
    StatSet stats_;
    // Interned per-access counters (resolved once; bumped per event).
    StatSet::Counter c_accesses_, c_writes_, c_hits_, c_misses_,
        c_writebacks_;
};

} // namespace gpushield

#endif // GPUSHIELD_MEM_CACHE_H
