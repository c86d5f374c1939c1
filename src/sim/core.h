/**
 * @file
 * Shader-core (SM) timing model.
 *
 * Each core holds workgroup slots, schedules warps greedy-then-oldest,
 * and drives the LSU + BCU pair for memory instructions. One memory
 * instruction enters the LSU per cycle; its coalesced transactions go to
 * the memory hierarchy, and the BCU check runs alongside the LSU
 * pipeline (Fig. 12), exposing a bubble only when the check latency
 * exceeds the pipeline shadow.
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
          instr_overhead_cycles(s.counter("instr_overhead_cycles"))
    {
    }

    StatSet::Counter instructions, loads, stores, transactions,
        shared_accesses, mallocs, checks, checks_elided,
        checks_skipped_unprotected, bcu_stall_cycles, rbt_refills,
        violations, guard_suppressed_lanes, instr_overhead_cycles;
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

    /** True when no workgroups are resident. */
    bool idle() const { return live_workgroups_ == 0; }

    /** The core's primary shield backend (the configured kind). */
    ShieldBackend &shield() { return *shield_; }
    const ShieldBackend &shield() const { return *shield_; }

    /** Secondary backend, created lazily when a resident kernel was
     *  signed for the other kind (mixed-backend co-scheduling); null
     *  until then — single-backend runs never pay for it. */
    const ShieldBackend *alt_shield() const { return alt_shield_.get(); }

    const StatSet &stats() const { return stats_; }
    CoreId id() const { return id_; }

    /** Attaches an instruction observer (sim/observer.h); nullptr
     *  detaches. Not owned. */
    void set_lane_observer(LaneObserver *obs) { lane_obs_ = obs; }

    /** Attaches a stall-attribution profiler; nullptr detaches. Not
     *  owned. */
    void set_profiler(obs::Profiler *profiler) { profiler_ = profiler; }

    /**
     * Attributes this cycle to a cause for every resident warp. Called
     * by Gpu::run after all cores ticked but before the event queue
     * advances, so the counted warp-cycles per workgroup exactly equal
     * its residency (end − start). Only called while a profiler is
     * attached.
     */
    void profile_cycle();

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
        /** Liveness token: completion callbacks captured before an abort
         *  must not touch a reused slot. */
        std::shared_ptr<bool> token;
    };

    bool try_dispatch();
    /** Backend that checks @p kind kernels on this core; creates the
     *  secondary backend on first use. */
    ShieldBackend &backend_for(ShieldBackendKind kind);
    /** Lowers the ready hint: some warp may issue at cycle @p c. */
    void note_ready(Cycle c);
    /** Recomputes the ready hint exactly from current warp states. */
    void recompute_ready_hint(Cycle now);
    void start_workgroup(KernelExec *kernel, std::uint32_t wg_index);
    bool issue_one(WorkgroupCtx &wg, WarpState &warp);
    void handle_mem(WorkgroupCtx &wg, WarpState &warp, const MemOp &op);
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
    std::unique_ptr<ShieldBackend> alt_shield_;

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
    int greedy_slot_ = -1;       //!< GTO: last-issued warp first
    int greedy_warp_ = -1;

    /**
     * Lower bound on the next cycle at which any resident warp could
     * issue. tick() skips the warp scan while now is below it; every
     * warp state transition lowers it via note_ready(), and a scanning
     * tick recomputes it exactly. A stale-low hint only costs an extra
     * scan, never changes behaviour.
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
};

} // namespace gpushield

#endif // GPUSHIELD_SIM_CORE_H
