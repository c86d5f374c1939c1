/**
 * @file
 * Host-side self-profiling of the simulation engine.
 *
 * The stall-attribution profiler (profiler.h) explains where *simulated*
 * cycles go; this one explains where *host wall-time* goes while the
 * engine produces them — per engine phase: the cores' ticks (dispatch,
 * issue and every applied effect), event-queue dispatch, and kernel
 * detach.
 *
 * Attached via Gpu::set_engine_profiler(); when detached the engine
 * reads no clocks, so the default path costs one branch per phase.
 * Like the stall profiler, attaching one leaves the engine's clock
 * jumps alone — it measures the clock-jumping engine as it runs.
 */

#ifndef GPUSHIELD_OBS_ENGINE_PROFILE_H
#define GPUSHIELD_OBS_ENGINE_PROFILE_H

#include <array>
#include <chrono>
#include <cstdint>

namespace gpushield::obs {

/** Wall-time accumulator for the engine's per-cycle phases. */
class HostEngineProfiler
{
  public:
    enum class Phase : unsigned {
        Issue,  //!< every core's tick: dispatch, issue, effects
        Events, //!< event-queue dispatch (step / jump run_until)
        Detach, //!< completed-kernel detach + RCache invalidation
    };
    static constexpr unsigned kPhases = 3;

    using clock = std::chrono::steady_clock;

    /** Accumulates @p ns nanoseconds of wall time into @p p. */
    void
    add(Phase p, std::uint64_t ns)
    {
        ns_[static_cast<unsigned>(p)] += ns;
    }

    std::uint64_t ns(Phase p) const
    {
        return ns_[static_cast<unsigned>(p)];
    }

  private:
    std::array<std::uint64_t, kPhases> ns_{};
};

/** RAII phase timer: accumulates on destruction when @p prof is
 *  non-null; a no-op (no clock read) otherwise. */
class EnginePhaseTimer
{
  public:
    EnginePhaseTimer(HostEngineProfiler *prof, HostEngineProfiler::Phase p)
        : prof_(prof), phase_(p)
    {
        if (prof_ != nullptr)
            start_ = HostEngineProfiler::clock::now();
    }

    ~EnginePhaseTimer()
    {
        if (prof_ != nullptr) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    HostEngineProfiler::clock::now() - start_)
                    .count();
            prof_->add(phase_, static_cast<std::uint64_t>(ns));
        }
    }

    EnginePhaseTimer(const EnginePhaseTimer &) = delete;
    EnginePhaseTimer &operator=(const EnginePhaseTimer &) = delete;

  private:
    HostEngineProfiler *prof_;
    HostEngineProfiler::Phase phase_;
    HostEngineProfiler::clock::time_point start_{};
};

} // namespace gpushield::obs

#endif // GPUSHIELD_OBS_ENGINE_PROFILE_H
