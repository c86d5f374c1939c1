/**
 * @file
 * The GPU memory hierarchy: per-core L1 data caches and L1 TLBs, a shared
 * L2 cache and L2 TLB, and the DRAM controller (Table 5 of the paper).
 *
 * The hierarchy is the timing authority for memory transactions. The LSU
 * issues coalesced line-sized transactions; the hierarchy reports the L1
 * outcome immediately (the BCU needs it to decide whether a bounds-check
 * bubble is exposed) and invokes a completion callback when data returns.
 *
 * A request a full DRAM channel refuses waits in that channel's FIFO.
 * The waiters of all channels follow one total retry order, and one
 * event per retry run per cycle admits channel heads in that order
 * while their channels have room, so a retry costs O(channels +
 * admitted), not O(waiters). The outcome equals one retry event per
 * waiter per cycle because nothing frees a DRAM slot or brings a DRAM
 * arrival between two retry events of one cycle: a DRAM service takes
 * at least 2 cycles (Dram panics otherwise), and so does the L2 latency
 * (the hierarchy panics otherwise). See docs/INTERNALS.md §5.
 */

#ifndef GPUSHIELD_MEM_HIERARCHY_H
#define GPUSHIELD_MEM_HIERARCHY_H

#include <compare>
#include <cstdint>
#include <deque>
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
    Cycle l2_latency = 90;          //!< additional cycles to L2 (>= 2)
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

    /**
     * Hands a request to the DRAM controller, honouring back-pressure.
     * A request the channel queue refuses waits in its channel's FIFO
     * and is retried every cycle until accepted, in the same (cycle,
     * seq) order one retry event per waiter would have had (INTERNALS
     * §5). `dram_retries` counts every refusal, the first one included.
     */
    void enqueue_dram(PAddr paddr, bool is_write, Callback done);

    /** True while at least one refused DRAM request waits for a retry
     *  — the signal the profiler uses to attribute blocked warps to
     *  DRAM back-pressure rather than plain memory latency. */
    bool dram_backpressure() const { return pending_dram_retries_ > 0; }

    const MemHierConfig &config() const { return cfg_; }
    Cache &l1(CoreId core) { return *l1_[core]; }
    Tlb &l1_tlb(CoreId core) { return *l1_tlb_[core]; }
    Cache &l2() { return l2_cache_; }
    Tlb &l2_tlb() { return l2_tlb_; }
    Dram &dram() { return dram_; }
    const StatSet &stats() const { return stats_; }

  private:
    /**
     * Place of a refused request in the one total retry order. A
     * refusal made before any retry event of its cycle fired joins
     * that cycle's front batch, which sorts ahead of every waiter still
     * waiting (later cycles' batches first); a refusal made after them
     * sorts behind every waiter. Within a batch, refusal order rules.
     */
    struct RetryKey
    {
        std::int64_t batch = 0; //!< -(cycle + 1) for a front batch, else 0
        std::uint64_t pos = 0;  //!< refusal number
        auto operator<=>(const RetryKey &) const = default;
    };

    /** A refused DRAM request waiting to re-enqueue. */
    struct DramWaiter
    {
        PAddr paddr = 0;
        bool is_write = false;
        Callback done;
        RetryKey key;
    };

    /**
     * One retry event's waiters: every waiting key after the previous
     * run's range, up to and including @p last. The waiters stay in
     * their channel FIFOs; a run only counts them.
     */
    struct RetryRun
    {
        RetryKey last;
        std::uint64_t count = 0;
    };

    /**
     * The run a waiter refused at now() joins: the tail run when its
     * event fires next cycle and nothing has been scheduled since,
     * otherwise a new run with its own event one cycle ahead.
     */
    RetryRun &joinable_retry_run();

    /** Event body: admits the front run's channel heads in key order
     *  while their channels have room; the rest join a run for the next
     *  cycle. */
    void retry_front_run();

    /** Moves the front batches refused before now() from held_ to the
     *  heads of their channel FIFOs. */
    void queue_held_refusals();

    EventQueue &eq_;
    PageTable &pt_;
    MemHierConfig cfg_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Tlb>> l1_tlb_;
    Cache l2_cache_;
    Tlb l2_tlb_;
    Dram dram_;
    /** Per DRAM channel, its waiters in key order. */
    std::vector<std::deque<DramWaiter>> waiting_;
    /** Front refusals, in refusal order, that no retry event has seen
     *  yet: they are never tried in the cycle that refused them. */
    std::vector<DramWaiter> held_;
    /** Pending retry runs. Each run's event fires the cycle after the
     *  run is made, so runs fire in the order they were made and the
     *  front run's event is always the next to fire. */
    std::deque<RetryRun> retry_runs_;
    Cycle tail_run_when_ = 0;          //!< cycle of the back run's event
    std::uint64_t tail_run_seq_ = 0;   //!< seq of the back run's event
    Cycle last_retry_cycle_ = kCycleMax; //!< cycle of the last retry event
    std::uint64_t refusals_ = 0;       //!< next RetryKey::pos
    unsigned pending_dram_retries_ = 0;
    StatSet stats_;
    // Interned per-access counters (resolved once; bumped per event).
    StatSet::Counter c_faults_, c_page_walks_, c_dram_reads_,
        c_physical_accesses_, c_dram_retries_;
};

} // namespace gpushield

#endif // GPUSHIELD_MEM_HIERARCHY_H
