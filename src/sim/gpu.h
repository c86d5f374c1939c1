/**
 * @file
 * Whole-GPU simulation driver: owns the cores, the memory hierarchy, and
 * the cycle loop; dispatches launched kernels to cores (with core masks
 * for the §6.2 multi-kernel modes) and collects per-kernel results.
 */

#ifndef GPUSHIELD_SIM_GPU_H
#define GPUSHIELD_SIM_GPU_H

#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "driver/driver.h"
#include "sim/config.h"
#include "sim/core.h"

namespace gpushield::obs {
class HostEngineProfiler;
}

namespace gpushield {

/** Outcome of one kernel execution. */
struct KernelResult
{
    std::string name;
    KernelId kernel_id = 0;
    TenantId tenant = 0; //!< owning tenant (service mode; 0 otherwise)
    Cycle start_cycle = 0;
    Cycle end_cycle = 0;
    bool aborted = false;
    StatSet stats;
    std::vector<Violation> violations;

    Cycle cycles() const { return end_cycle - start_cycle; }
};

/** A simulated GPU instance. */
class Gpu
{
  public:
    /** A GPU over @p driver's device. Kernels of every driver bound
     *  to that device may launch on it. */
    Gpu(const GpuConfig &cfg, Driver &driver);

    /**
     * Launches a kernel. Ownership of @p state moves into the GPU; the
     * driver that built it (LaunchState::driver) services its
     * device-side mallocs.
     *
     * @param core_mask  bit i allows core i (inter-/intra-core sharing)
     * @param extra_cycles_per_mem / @param extra_transactions
     *                   instrumentation knobs for software-tool baselines
     * @return launch index for result()
     * @throws SimulationError, after releasing the launch's IDs on its
     *         driver, when @p state's pointers were signed for another
     *         shield backend than GpuConfig::shield names
     */
    std::size_t launch(LaunchState state,
                       std::uint64_t core_mask = ~std::uint64_t{0},
                       Cycle extra_cycles_per_mem = 0,
                       unsigned extra_transactions = 0);

    /**
     * Runs the simulation until every launched kernel completes.
     *
     * Event-driven: it step()s, and after a cycle where no core made
     * progress the clock jumps straight to min(next core-ready cycle,
     * next event) (see cycles_skipped()). An attached stall profiler is
     * credited each jumped stretch in bulk; no observer changes whether
     * the clock jumps.
     */
    void run();

    /**
     * Simulates one cycle: ticks every core, attributes the cycle to an
     * attached stall profiler, runs the next cycle's events and
     * detaches finished kernels. Stepping until done() visits every
     * cycle run() would jump.
     * @return true if some core dispatched a workgroup or issued
     */
    bool step();

    /** True once every launched kernel completed or aborted. */
    bool done() const;

    /** Idle cycles the event-driven engine skipped instead of ticking
     *  (cumulative across run() calls). */
    std::uint64_t cycles_skipped() const { return cycles_skipped_; }

    /** Result of launch @p index (valid after run()).
     *  @throws std::out_of_range if launch() never returned @p index */
    KernelResult result(std::size_t index) const;

    /** Host-visible launch state (for driver finish / downloads).
     *  @throws std::out_of_range if launch() never returned @p index */
    LaunchState &launch_state(std::size_t index);

    /** Aggregated RCache statistics across all cores. */
    StatSet rcache_stats() const;

    /** Aggregated BCU statistics across all cores. */
    StatSet bcu_stats() const;

    /** L1 RCache hit rate across all cores (Figs. 15/16). */
    double rcache_l1_hit_rate() const;

    /** Attaches a host-side engine profiler (obs/engine_profile.h):
     *  wall-time per engine phase. nullptr detaches. Observes the host
     *  only — simulated results are unaffected. Not owned; must
     *  outlive run(). */
    void set_engine_profiler(obs::HostEngineProfiler *prof)
    {
        engine_prof_ = prof;
    }

    /**
     * Attaches a stall-attribution profiler (src/obs) to the GPU and
     * every core; nullptr detaches. The profiler observes only —
     * attaching one changes neither simulated timing nor the cycles
     * the engine jumps. Not owned; must outlive run().
     */
    void set_profiler(obs::Profiler *profiler);

    /**
     * Attaches an instruction observer (GT-Pin-style tools, the
     * conformance oracle; sim/observer.h) to every core; nullptr
     * detaches. Attach before launch() so the observer sees the
     * kernel's on_launch notification. Observes only — never changes
     * simulated behaviour. Not owned; must outlive run().
     */
    void set_lane_observer(LaneObserver *obs);

    std::size_t num_cores() const { return cores_.size(); }
    MemoryHierarchy &hierarchy() { return hier_; }
    Cycle now() const { return eq_.now(); }

  private:
    struct Launched
    {
        std::unique_ptr<LaunchState> state;
        std::unique_ptr<KernelExec> exec;
        bool detached = false;
    };

    void detach_completed();
    /** Credits the profiler the @p n cycles from @p from on. */
    void attribute(Cycle from, Cycle n);
    /** Advances the clock to the next cycle any core or event needs;
     *  throws on a provable deadlock. @p deadline caps the jump. */
    void advance_clock(Cycle deadline);

    GpuConfig cfg_;
    EventQueue eq_;
    MemoryHierarchy hier_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Launched> launched_;
    obs::Profiler *profiler_ = nullptr;
    obs::HostEngineProfiler *engine_prof_ = nullptr;
    LaneObserver *lane_obs_ = nullptr;
    std::uint64_t cycles_skipped_ = 0;
    /** The hierarchy's dram_retries count last handed to profiler_. */
    std::uint64_t retries_reported_ = 0;
};

} // namespace gpushield

#endif // GPUSHIELD_SIM_GPU_H
