/**
 * @file
 * Translation lookaside buffers.
 *
 * The paper's Table 5 configuration: a 64-entry fully-associative L1 TLB
 * per core and a shared 1024-entry 32-way L2 TLB. Misses in both levels
 * pay a page-walk latency.
 */

#ifndef GPUSHIELD_MEM_TLB_H
#define GPUSHIELD_MEM_TLB_H

#include <cstdint>
#include <string>

#include "mem/cache.h"

namespace gpushield {

/** TLB built on the set-associative array (page-granularity lines). */
class Tlb
{
  public:
    /**
     * @param entries   total entry count
     * @param assoc     associativity; pass @p entries for fully associative
     * @param page_size bytes covered by one entry
     */
    Tlb(unsigned entries, unsigned assoc, std::uint64_t page_size,
        std::string name);

    /** Looks up the page of @p vaddr, filling on miss. @return hit? */
    bool access(VAddr vaddr);

    double hit_rate() const { return array_.hit_rate(); }
    const StatSet &stats() const { return array_.stats(); }

  private:
    Cache array_;
};

} // namespace gpushield

#endif // GPUSHIELD_MEM_TLB_H
