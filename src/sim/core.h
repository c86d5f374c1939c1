/**
 * @file
 * Shader-core (SM) timing model.
 *
 * Each core holds workgroup slots, schedules warps greedy-then-lowest-
 * slot (the last-issued warp first, then slots and their warps in index
 * order), and drives the LSU + BCU pair for memory instructions. The
 * scan visits only eligible warps: each slot keeps a mask of its Ready
 * warps that are due, and a warp due later waits in a 64-cycle
 * readiness wheel (or, beyond it, a short far list) until the clock
 * reaches its cycle, so an issue costs no visit to a waiting warp. One
 * memory instruction enters the LSU per cycle; its coalesced
 * transactions go to the memory hierarchy, and the BCU check runs
 * alongside the LSU pipeline (Fig. 12), exposing a bubble only when the
 * check latency exceeds the pipeline shadow.
 *
 * tick() is the core's only per-cycle entry: it dispatches a workgroup
 * if one fits, then issues, applying every effect of an issued
 * instruction — hierarchy traffic, device mallocs, workgroup completion,
 * kernel aborts — before the next one issues. Cores tick in core-ID
 * order, which fixes the global effect order.
 */

#ifndef GPUSHIELD_SIM_CORE_H
#define GPUSHIELD_SIM_CORE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/hierarchy.h"
#include "shield/backend.h"
#include "sim/config.h"
#include "sim/interp.h"
#include "sim/observer.h"
#include "sim/warp.h"

namespace gpushield::obs {
class Profiler;
}

namespace gpushield {

/** Interned handles into a StatSet for every per-instruction counter
 *  (resolved once at construction; bumped per event). Rare events
 *  (e.g. translation_faults) stay string-keyed. */
struct KernelHotCounters
{
    explicit KernelHotCounters(StatSet &s)
        : instructions(s.counter("instructions")),
          loads(s.counter("loads")), stores(s.counter("stores")),
          transactions(s.counter("transactions")),
          shared_accesses(s.counter("shared_accesses")),
          mallocs(s.counter("mallocs")), checks(s.counter("checks")),
          checks_elided(s.counter("checks_elided")),
          checks_skipped_unprotected(
              s.counter("checks_skipped_unprotected")),
          bcu_stall_cycles(s.counter("bcu_stall_cycles")),
          rbt_refills(s.counter("rbt_refills")),
          violations(s.counter("violations")),
          guard_suppressed_lanes(s.counter("guard_suppressed_lanes")),
          instr_overhead_cycles(s.counter("instr_overhead_cycles")),
          checks_covered(s.counter("checks_covered")),
          cover_probes(s.counter("cover_probes")),
          cover_probe_fails(s.counter("cover_probe_fails"))
    {
    }

    StatSet::Counter instructions, loads, stores, transactions,
        shared_accesses, mallocs, checks, checks_elided,
        checks_skipped_unprotected, bcu_stall_cycles, rbt_refills,
        violations, guard_suppressed_lanes, instr_overhead_cycles,
        checks_covered, cover_probes, cover_probe_fails;
};

/** A kernel under execution on the GPU (shared across its cores). */
struct KernelExec
{
    LaunchState *launch = nullptr;
    std::unique_ptr<WarpInterpreter> interp;
    std::uint64_t core_mask = ~std::uint64_t{0}; //!< cores allowed to run it

    std::uint32_t next_wg = 0;
    std::uint32_t wgs_done = 0;
    bool started = false;
    bool done = false;
    bool aborted = false; //!< translation fault (illegal access error)
    Cycle start_cycle = 0;
    Cycle end_cycle = 0;

    /** Device-malloc serialization point (footnote 2 behaviour). */
    Cycle malloc_busy_until = 0;

    /** Software-tool instrumentation knobs (baselines; 0 = none). */
    Cycle instr_extra_cycles_per_mem = 0;    //!< extra issue occupancy
    unsigned instr_extra_transactions = 0;   //!< shadow-metadata traffic

    /** Per-kernel statistics, bumped by every core running it. */
    StatSet stats;
    KernelHotCounters hot{stats};

    std::uint32_t total_wgs() const { return launch->nctaid; }
};

/** One shader core. */
class Core
{
  public:
    Core(CoreId id, const GpuConfig &cfg, EventQueue &eq,
         MemoryHierarchy &hier);

    /** Makes @p kernel resident (registers its key/RBT with the BCU). */
    void attach_kernel(KernelExec *kernel);

    /** Removes a finished kernel and invalidates its RCache entries
     *  (§5.5). */
    void detach_kernel(KernelExec *kernel);

    /**
     * Advances the core by one cycle: dispatches a workgroup if one
     * fits, then issues up to issue_width instructions, applying each
     * one's effects inline.
     * @return true if the core made progress this cycle (dispatched a
     * workgroup or issued an instruction) — the engine's progress
     * signal; a stalled or empty core returns false, making the cycle
     * a candidate for a clock jump.
     */
    bool tick();

    /** True when the next tick() would start a workgroup.
     *  Pure; used by the engine to compute clock jumps (dispatch
     *  opportunities only appear at engine-visible transitions). */
    bool can_dispatch() const;

    /**
     * Earliest cycle >= @p from at which this core could do any work:
     * dispatch a workgroup, or issue from some warp. kCycleMax when
     * the core is idle or every resident warp waits on an event-queue
     * wakeup. May be conservatively early (the ready hint is a lower
     * bound) — the engine then ticks a core that does nothing, which
     * is harmless; it is never late.
     */
    Cycle next_work_cycle(Cycle from) const;

    /** The core's shield backend, the kind GpuConfig::shield names. */
    const ShieldBackend &shield() const { return *shield_; }

    const StatSet &stats() const { return stats_; }
    CoreId id() const { return id_; }

    /** Attaches an instruction observer (sim/observer.h); nullptr
     *  detaches. Not owned. */
    void set_lane_observer(LaneObserver *obs) { lane_obs_ = obs; }

    /** Attaches a stall-attribution profiler; nullptr detaches. Not
     *  owned. */
    void set_profiler(obs::Profiler *profiler) { profiler_ = profiler; }

    /**
     * Attributes the @p n cycles from @p from on to a cause for every
     * resident warp: a stepped cycle (after all cores ticked, before
     * the event queue advances) or a stretch the clock jumps (before
     * the jump), so counted warp-cycles per workgroup equal its
     * residency. No tick or event falls inside a stretch, so only a
     * Ready warp's cause changes: Scoreboard before its ready_cycle,
     * then BcuStall while a BCU bubble holds issue, then LsuBusy.
     */
    void profile_cycles(Cycle from, Cycle n);

  private:
    struct WorkgroupCtx
    {
        KernelExec *kernel = nullptr;
        std::uint32_t wg_index = 0;
        std::vector<WarpState> warps;
        std::vector<std::uint8_t> shared_mem;
        unsigned warps_at_barrier = 0;
        unsigned warps_finished = 0;
        bool live = false;
        /** Bumped when the slot starts a workgroup and when an abort
         *  kills it: a load completion issued under an older
         *  generation must not touch the slot. */
        std::uint32_t generation = 0;
    };

    /** A global load waiting for its transactions (and any RBT
     *  refill). One per memory instruction: a warp of a kernel that
     *  just aborted may issue again before the kernel is detached. */
    struct PendingLoad
    {
        unsigned remaining = 0;      //!< completions still to come
        std::uint32_t generation = 0; //!< slot generation at issue
        std::uint32_t slot = 0;
        std::uint32_t warp = 0;
    };

    /** True when @p kernel may start a workgroup on this core now:
     *  workgroups left, this core in its mask, and warps to spare. */
    bool dispatchable(const KernelExec &kernel) const;
    bool try_dispatch();
    /** Lowers the ready hint: some warp may issue at cycle @p c. */
    void note_ready(Cycle c);
    /** Sets the ready hint exactly from the readiness structures; @p now
     *  is the cycle they were drained to. */
    void recompute_ready_hint(Cycle now);
    /** Makes Ready warp @p warp of @p wg issue no earlier than @p due:
     *  sets its ready_cycle and files it as eligible (due by now), in
     *  the wheel, or in the far list. */
    void schedule_warp(WorkgroupCtx &wg, WarpState &warp, Cycle due);
    /** Takes @p warp of @p wg out of the eligible set (it stopped being
     *  Ready: barrier, exit or a blocking load). */
    void unschedule_warp(const WorkgroupCtx &wg, const WarpState &warp);
    /** Moves every warp due at or before @p now into the eligible set. */
    void drain_ready(Cycle now);
    /** Forgets every filed warp of slot @p slot (its workgroup died). */
    void drop_slot(std::size_t slot);
    void start_workgroup(KernelExec *kernel, std::uint32_t wg_index);
    bool issue_one(WorkgroupCtx &wg, WarpState &warp);
    void handle_mem(WorkgroupCtx &wg, WarpState &warp, const MemOp &op);
    /** Takes a free PendingLoad entry for warp @p warp of @p wg. */
    std::uint32_t new_pending_load(const WorkgroupCtx &wg,
                                   const WarpState &warp);
    /** Event body: one completion of load @p idx; the last one wakes
     *  the warp unless its slot changed generation since the issue. */
    void complete_load(std::uint32_t idx);
    /** Frees @p wg's slot once its last warp exited and advances the
     *  kernel's completion count. */
    void finish_warp(WorkgroupCtx &wg);
    void release_barrier(WorkgroupCtx &wg);
    void abort_kernel(KernelExec *kernel);
    unsigned live_warps(const WorkgroupCtx &wg) const;

    CoreId id_;
    const GpuConfig &cfg_;
    EventQueue &eq_;
    MemoryHierarchy &hier_;
    std::unique_ptr<ShieldBackend> shield_;

    std::vector<KernelExec *> resident_;
    std::size_t dispatch_rr_ = 0; //!< round-robin among resident kernels

    /**
     * False when the last dispatch attempt failed and nothing has
     * happened since that could make one succeed. A failed attempt can
     * only turn dispatchable through attach_kernel (new work) or a
     * freed slot / warp budget (finish_warp, detach_kernel) — each of
     * those sets this back to true, so try_dispatch/can_dispatch can
     * skip their kernel scan on the (vast majority of) cycles where
     * the answer is a foregone no.
     */
    bool dispatch_possible_ = true;

    std::vector<WorkgroupCtx> slots_;
    unsigned live_workgroups_ = 0;
    unsigned warps_in_use_ = 0;

    LaneObserver *lane_obs_ = nullptr;
    obs::Profiler *profiler_ = nullptr;
    Cycle lsu_busy_until_ = 0;   //!< structural: one mem instr per cycle
    Cycle issue_busy_until_ = 0; //!< instrumentation / bubbles
    Cycle bcu_busy_until_ = 0;   //!< the issue-busy share that is an
                                 //!< exposed BCU bubble (attribution)
    int greedy_slot_ = -1;       //!< last-issued warp goes first
    int greedy_warp_ = -1;

    /**
     * Readiness of the Ready warps, by the cycle they are due
     * (ready_cycle). Bit w of eligible_[s] is set for warp w of slot s
     * once it is due: after drain_ready(now), exactly the Ready warps
     * with ready_cycle <= now. A warp due within kWheelSpan cycles of
     * drained_ waits in the wheel bucket of its cycle (one mask per
     * slot, bucket-major); one due later, which only device-malloc
     * serialization produces, waits in far_. Every transition that
     * makes a warp Ready or sets its ready_cycle files it here.
     */
    static constexpr Cycle kWheelSpan = 64;
    struct FarWarp
    {
        Cycle due;
        std::uint32_t slot;
        std::uint32_t warp;
    };
    std::vector<std::uint32_t> eligible_;
    std::vector<std::uint32_t> wheel_;  //!< kWheelSpan x slots
    std::uint64_t wheel_occupied_ = 0;  //!< bit b: bucket b not empty
    std::vector<FarWarp> far_;
    Cycle far_min_ = kCycleMax;         //!< earliest due in far_
    Cycle drained_ = 0; //!< wheel buckets up to here were drained

    /**
     * Lower bound on the next cycle at which any resident warp could
     * issue. tick() skips the warp scan while now is below it; a warp
     * that turns Ready between scans lowers it via note_ready(), and a
     * scanning tick recomputes it exactly: now + 1 when a warp is still
     * eligible, else the earliest wheel bucket or far-list cycle. That
     * is the minimum over Ready warps of max(ready_cycle, now + 1),
     * which the engine's clock jumps depend on. A stale-low hint only
     * costs an extra scan, never changes behaviour.
     */
    Cycle ready_hint_ = 0;

    StatSet stats_;
    StatSet::Counter c_issued_, c_workgroups_started_,
        c_workgroups_finished_;

    /** Reusable coalesce outputs so handle_mem allocates nothing in
     *  steady state (one for the full warp, one for the re-coalesce of
     *  surviving lanes after a partial squash). */
    std::vector<VAddr> lines_scratch_;
    std::vector<VAddr> live_lines_scratch_;

    /** In-flight loads, indexed by the id their completion events
     *  carry, and the free ids: a completion closure is {this, id}, so
     *  it fits std::function's inline buffer and nothing allocates per
     *  memory instruction in steady state. */
    std::vector<PendingLoad> pending_loads_;
    std::vector<std::uint32_t> free_loads_;
};

} // namespace gpushield

#endif // GPUSHIELD_SIM_CORE_H
