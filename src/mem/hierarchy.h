/**
 * @file
 * The GPU memory hierarchy: per-core L1 data caches and L1 TLBs, a shared
 * L2 cache and L2 TLB, and the DRAM controller (Table 5 of the paper).
 *
 * The hierarchy is the timing authority for memory transactions. The LSU
 * issues coalesced line-sized transactions; the hierarchy reports the L1
 * outcome immediately (the BCU needs it to decide whether a bounds-check
 * bubble is exposed) and invokes a completion callback when data returns.
 */

#ifndef GPUSHIELD_MEM_HIERARCHY_H
#define GPUSHIELD_MEM_HIERARCHY_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/page_table.h"
#include "mem/tlb.h"

namespace gpushield {

/** Latency and geometry parameters of the hierarchy. */
struct MemHierConfig
{
    CacheConfig l1;                 //!< per-core L1 data cache geometry
    CacheConfig l2;                 //!< shared L2 geometry
    unsigned l1_tlb_entries = 64;   //!< fully associative
    unsigned l2_tlb_entries = 1024;
    unsigned l2_tlb_assoc = 32;
    std::uint64_t page_size = kPageSize2M;

    Cycle l1_latency = 4;           //!< LSU-visible L1 hit latency
    Cycle l2_latency = 90;          //!< additional cycles to L2
    Cycle l2_tlb_latency = 20;      //!< L1 TLB miss, L2 TLB hit
    Cycle page_walk_latency = 200;  //!< both TLBs miss

    DramConfig dram;
};

/** Immediately-known facts about an issued transaction. */
struct AccessIssue
{
    bool translation_fault = false; //!< unmapped page
    bool permission_fault = false;  //!< mapped but not permitted
    bool l1_hit = false;
    bool l1_tlb_hit = false;
    PAddr paddr = 0;
};

/** Memory hierarchy shared by all cores of one GPU. */
class MemoryHierarchy
{
  public:
    using Callback = std::function<void()>;

    MemoryHierarchy(EventQueue &eq, PageTable &pt, const MemHierConfig &cfg,
                    unsigned num_cores);

    /**
     * Issues one line-sized transaction from core @p core for virtual
     * address @p vaddr. Returns the L1/TLB outcome immediately; schedules
     * @p done at data-return time (not scheduled on faults).
     */
    AccessIssue access(CoreId core, VAddr vaddr, bool is_write, Callback done);

    /**
     * Physically-addressed access that bypasses translation — used for
     * RBT refills (§5.4: RBT accesses bypass the address translation).
     * Goes L2 → DRAM.
     */
    void access_physical(PAddr paddr, Callback done);

    /** Flushes per-core L1 state (kernel termination / context switch). */
    void flush_core(CoreId core);

    /**
     * Hands a request to the DRAM controller, honouring back-pressure:
     * when the channel queue is full the request is retried every cycle
     * until accepted (`dram_retries` counts the re-enqueue attempts).
     */
    void enqueue_dram(PAddr paddr, bool is_write, Callback done);

    /** True while at least one rejected DRAM request is waiting to
     *  re-enqueue — the signal the profiler uses to attribute blocked
     *  warps to DRAM back-pressure rather than plain memory latency. */
    bool dram_backpressure() const { return pending_dram_retries_ > 0; }

    const MemHierConfig &config() const { return cfg_; }
    Cache &l1(CoreId core) { return *l1_[core]; }
    Tlb &l1_tlb(CoreId core) { return *l1_tlb_[core]; }
    Cache &l2() { return l2_cache_; }
    Tlb &l2_tlb() { return l2_tlb_; }
    Dram &dram() { return dram_; }
    const StatSet &stats() const { return stats_; }

  private:
    /** Re-enqueues a rejected DRAM request one cycle later, repeating
     *  until accepted; keeps pending_dram_retries_ balanced. */
    void schedule_dram_retry(PAddr paddr, bool is_write, Callback done);

    EventQueue &eq_;
    PageTable &pt_;
    MemHierConfig cfg_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Tlb>> l1_tlb_;
    Cache l2_cache_;
    Tlb l2_tlb_;
    Dram dram_;
    unsigned pending_dram_retries_ = 0;
    StatSet stats_;
    // Interned per-access counters (resolved once; bumped per event).
    StatSet::Counter c_faults_, c_page_walks_, c_dram_reads_,
        c_physical_accesses_, c_dram_retries_;
};

} // namespace gpushield

#endif // GPUSHIELD_MEM_HIERARCHY_H
