/**
 * @file
 * Cycle-level stall-attribution profiler (the observability subsystem
 * `sim/observer.h`'s GT-Pin-style hook was stubbed out for).
 *
 * When a Profiler is attached to a Gpu, every resident warp-cycle is
 * attributed to exactly one cause: the warp either issued an
 * instruction or it stalled for a classified reason (scoreboard
 * dependency, LSU/issue structural hazard, exposed bounds-check bubble,
 * RBT-refill round trip, outstanding memory data, DRAM back-pressure,
 * barrier, or no remaining work). The attribution invariant — per warp,
 * the cause cycles sum to the warp's resident cycles — is what makes
 * the paper's pipeline-effect arguments (§6, Figs. 14-18) checkable on
 * any run instead of inferred from end-of-run counters.
 *
 * The profiler additionally records per-SM occupancy/IPC and DRAM
 * queue/retry time series at a configurable sampling interval, and
 * per-kernel phase spans. Everything exports as Chrome trace-event JSON
 * loadable in chrome://tracing or Perfetto (see docs/PROFILING.md).
 * Event counts (BCU checks, RCache hits, DRAM traffic) are not kept
 * here: the components count them once, in their own StatSets.
 *
 * Cost model: only the Gpu and its cores hold a nullable `Profiler *`;
 * with no profiler attached each hook is a single predictable branch,
 * so the disabled path is free. Attached, it changes nothing the engine
 * does: the Gpu credits each stepped cycle and each stretch its clock
 * jumps, with one classification per resident warp. The profiler
 * observes, it does not participate.
 */

#ifndef GPUSHIELD_OBS_PROFILER_H
#define GPUSHIELD_OBS_PROFILER_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace gpushield::obs {

/** Exclusive per-warp-cycle attribution. Order is the export order. */
enum class StallCause : std::uint8_t {
    Issued = 0,       //!< not a stall: the warp issued this cycle
    Scoreboard,       //!< result dependency: operand not ready yet
    LsuBusy,          //!< issue/LSU structural hazard (port occupied)
    BcuStall,         //!< exposed bounds-check bubble (Fig. 12)
    RcacheMiss,       //!< blocked on an RBT-refill memory round trip
    MemPending,       //!< blocked on outstanding load data
    DramBackpressure, //!< blocked while DRAM queues refuse requests
    Barrier,          //!< waiting at a workgroup barrier
    NoWork,           //!< warp finished; workgroup still resident
};

/** Number of StallCause values. */
inline constexpr std::size_t kNumStallCauses = 9;

/** Stable snake_case spelling (trace args / StatSet keys). */
const char *to_string(StallCause cause);

/** Per-warp cause histogram. */
struct WarpStallBreakdown
{
    std::array<std::uint64_t, kNumStallCauses> cycles{};

    std::uint64_t total() const;
};

/** One workgroup residency on one core slot, with per-warp breakdown. */
struct WorkgroupSpan
{
    CoreId core = 0;
    unsigned slot = 0;
    KernelId kernel = 0;
    std::uint32_t wg_index = 0;
    Cycle start = 0;
    Cycle end = 0;
    bool open = true; //!< still resident (kernel killed mid-run otherwise)
    std::vector<WarpStallBreakdown> warps;
};

/** One kernel's execution phase (launch to completion). */
struct KernelSpan
{
    KernelId kernel = 0;
    TenantId tenant = 0; //!< owning tenant (service mode; 0 otherwise)
    std::string name;
    Cycle start = 0;
    Cycle end = 0;
    bool aborted = false;
};

/** One point of a sampled counter time series. */
struct CounterSample
{
    Cycle ts = 0;
    double value = 0.0;
};

/** Aggregate roll-up carried on api::LaunchResult. */
struct ProfileSummary
{
    bool enabled = false;
    Cycle cycles = 0;               //!< profiled cycles
    std::uint64_t warp_cycles = 0;  //!< Σ resident warp-cycles
    std::array<std::uint64_t, kNumStallCauses> cause_cycles{};

    /** Fraction of warp-cycles spent on @p cause (0 when no cycles). */
    double fraction(StallCause cause) const;

    /** "stall.<cause>" counters plus warp_cycles/profiled_cycles —
     *  the form the harness feeds into RunRecord / MetricsRegistry. */
    StatSet to_statset() const;
};

/**
 * The stall-attribution profiler. Attach via attach_profiler() on
 * api::Context or service::GpuService, or Gpu::set_profiler for direct
 * simulator embedding. One Profiler may span several sequential
 * launches: set_time_base() shifts each launch onto a common timeline.
 */
class Profiler
{
  public:
    /** @p sample_interval is the occupancy/IPC/DRAM sampling period
     *  in cycles (0 is treated as 1). */
    explicit Profiler(Cycle sample_interval = 64);

    /** Offset added to every recorded cycle (multi-launch timelines). */
    void set_time_base(Cycle base) { base_ = base; }

    /** A sample closes on each cycle c with (c + 1) % this == 0. */
    Cycle sample_interval() const { return sample_interval_; }

    /// @name Instrumentation hooks (called by the simulator when attached)
    /// @{
    void on_workgroup_start(CoreId core, unsigned slot, KernelId kernel,
                            std::uint32_t wg_index, unsigned warps,
                            Cycle now);

    /** One resident warp, @p cycles cycles, one exclusive cause. */
    void
    on_warp_cycle(CoreId core, unsigned slot, unsigned warp,
                  StallCause cause, Cycle cycles)
    {
        CoreState &cs = core_state(core);
        WorkgroupSpan &wg = workgroups_[cs.active[slot]];
        wg.warps[warp].cycles[static_cast<std::size_t>(cause)] += cycles;
        cs.totals[static_cast<std::size_t>(cause)] += cycles;
        cs.interval_warp_cycles += cycles;
        if (cause == StallCause::Issued)
            cs.interval_issued += cycles;
    }

    void on_workgroup_end(CoreId core, unsigned slot, Cycle now);

    /** Kernel phase span (recorded once, at kernel completion). */
    void on_kernel_span(KernelId kernel, const std::string &name,
                        Cycle start, Cycle end, bool aborted,
                        TenantId tenant = 0);

    /** Closes @p cycles cycles of one sampling interval, ending with
     *  cycle @p last, and takes the sample when @p last ends the
     *  interval. @p dram_queued is the DRAM controller's queue
     *  occupancy (requests waiting or in service); @p dram_retries the
     *  DRAM re-enqueues since the previous report. */
    void end_cycles(Cycle last, Cycle cycles, unsigned dram_queued,
                    std::uint64_t dram_retries);

    /** DRAM re-enqueues after the last end_cycles of a run; they count
     *  towards the next sample. */
    void add_dram_retries(std::uint64_t n) { interval_dram_retries_ += n; }
    /// @}

    /// @name Results
    /// @{
    ProfileSummary summary() const;

    /** All workgroup residencies recorded so far, in start order. */
    const std::vector<WorkgroupSpan> &workgroups() const
    {
        return workgroups_;
    }

    /** All kernel phase spans recorded so far. */
    const std::vector<KernelSpan> &kernels() const { return kernels_; }

    /** Aggregate cause histogram of one core. */
    std::array<std::uint64_t, kNumStallCauses>
    core_stalls(CoreId core) const;

    /**
     * Emits everything as Chrome trace-event JSON: pid 0 holds kernel
     * phase spans (tid = kernel id), pid 100+c holds SM c's workgroup
     * slices (tid = workgroup slot) and its occupancy/IPC counters, and
     * pid 50 holds DRAM queue/retry counters. Workgroup slice args
     * carry the per-warp stall breakdown.
     */
    void write_chrome_trace(std::ostream &os) const;
    /// @}

  private:
    struct CoreState
    {
        /** slot -> index into workgroups_, or -1 when the slot is free. */
        std::vector<int> active;
        std::array<std::uint64_t, kNumStallCauses> totals{};
        std::uint64_t interval_warp_cycles = 0;
        std::uint64_t interval_issued = 0;
        std::vector<CounterSample> occupancy; //!< avg resident warps
        std::vector<CounterSample> ipc;       //!< instructions / cycle
    };

    CoreState &core_state(CoreId core);

    Cycle sample_interval_;
    Cycle base_ = 0;
    Cycle profiled_cycles_ = 0;
    Cycle last_ts_ = 0;

    std::vector<CoreState> cores_;
    std::vector<WorkgroupSpan> workgroups_;
    std::vector<KernelSpan> kernels_;

    std::vector<CounterSample> dram_queue_series_;
    std::vector<CounterSample> dram_retry_series_;
    std::uint64_t interval_dram_retries_ = 0;
};

} // namespace gpushield::obs

#endif // GPUSHIELD_OBS_PROFILER_H
