#include "sim/gpu.h"

#include <algorithm>

#include "common/log.h"
#include "obs/engine_profile.h"
#include "obs/profiler.h"

namespace gpushield {

Gpu::Gpu(const GpuConfig &cfg, Driver &driver)
    : cfg_(cfg),
      hier_(eq_, driver.device().page_table(), cfg.mem, cfg.num_cores)
{
    cores_.reserve(cfg.num_cores);
    for (unsigned c = 0; c < cfg.num_cores; ++c)
        cores_.push_back(std::make_unique<Core>(c, cfg_, eq_, hier_));
}

std::size_t
Gpu::launch(LaunchState state, std::uint64_t core_mask,
            Cycle extra_cycles_per_mem, unsigned extra_transactions)
{
    if (state.driver == nullptr)
        panic("Gpu::launch: LaunchState was not built by Driver::launch");
    Launched entry;
    entry.state = std::make_unique<LaunchState>(std::move(state));

    entry.exec = std::make_unique<KernelExec>();
    entry.exec->launch = entry.state.get();
    entry.exec->interp = std::make_unique<WarpInterpreter>(
        *entry.state, *entry.state->driver);
    entry.exec->core_mask = core_mask;
    entry.exec->instr_extra_cycles_per_mem = extra_cycles_per_mem;
    entry.exec->instr_extra_transactions = extra_transactions;
    entry.exec->start_cycle = eq_.now();
    entry.exec->end_cycle = eq_.now();

    if (lane_obs_ != nullptr)
        lane_obs_->on_launch(*entry.state);

    for (auto &core : cores_)
        if ((core_mask >> core->id()) & 1)
            core->attach_kernel(entry.exec.get());

    launched_.push_back(std::move(entry));
    return launched_.size() - 1;
}

bool
Gpu::all_done() const
{
    for (const Launched &l : launched_)
        if (!l.exec->done)
            return false;
    return true;
}

void
Gpu::detach_completed()
{
    // Detach kernels that just completed/aborted so their RCache entries
    // are invalidated at kernel termination (§5.5).
    for (Launched &l : launched_) {
        if (l.exec->done && !l.detached) {
            for (auto &core : cores_)
                if ((l.exec->core_mask >> core->id()) & 1)
                    core->detach_kernel(l.exec.get());
            l.detached = true;
            if (profiler_ != nullptr)
                profiler_->on_kernel_span(
                    l.state->kernel_id, l.state->program.name,
                    l.exec->start_cycle, l.exec->end_cycle,
                    l.exec->aborted, l.state->tenant);
        }
    }
}

void
Gpu::advance_clock(Cycle deadline)
{
    // Exact jump target: the earliest cycle at which anything can
    // happen. Cores publish their next dispatch/issue opportunity
    // (dispatch eligibility only changes at engine-visible points, and
    // blocked warps wake only through events), and the event queue
    // knows its next due cycle — so every cycle strictly before the
    // target is provably a no-op and can be skipped unsimulated.
    Cycle target = eq_.next_event_cycle();
    for (auto &core : cores_)
        target = std::min(target, core->next_work_cycle(eq_.now()));

    if (target == kCycleMax) {
        if (all_done())
            return;
        throw SimulationError(
            "Gpu::run: no core has schedulable work and the event "
            "queue is empty (simulation deadlock)");
    }
    target = std::min(target, deadline);
    if (target > eq_.now()) {
        cycles_skipped_ += target - eq_.now();
        eq_.run_until(target);
    }
}

void
Gpu::run()
{
    const Cycle deadline = eq_.now() + cfg_.max_cycles;
    // The stall profiler's warp-cycle attribution invariant (counted
    // warp-cycles == residency) requires visiting every cycle.
    const bool per_cycle = profiler_ != nullptr;
    // The profiler's DRAM-retry series is fed from the hierarchy's
    // counter: each sample takes the retries since the last report.
    std::uint64_t retries_reported = hier_.stats().get("dram_retries");

    while (!all_done() && eq_.now() < deadline) {
        // Progress (some core dispatched a workgroup or issued an
        // instruction) gates the clock-jump scan below: a busy cycle
        // skips the per-core next_work_cycle query entirely, and the
        // first idle cycle of a stretch pays for it once.
        bool progress = false;
        {
            obs::EnginePhaseTimer t(engine_prof_,
                               obs::HostEngineProfiler::Phase::Issue);
            for (auto &core : cores_)
                progress |= core->tick();
        }

        // Attribute this cycle before the queue advances so workgroup
        // residency and counted warp-cycles agree exactly.
        if (profiler_ != nullptr) {
            for (auto &core : cores_)
                core->profile_cycle();
            const std::uint64_t retries = hier_.stats().get("dram_retries");
            profiler_->end_cycle(eq_.now(), hier_.dram().total_queued(),
                                 retries - retries_reported);
            retries_reported = retries;
        }

        {
            obs::EnginePhaseTimer t(engine_prof_,
                               obs::HostEngineProfiler::Phase::Events);
            eq_.step();
        }

        {
            obs::EnginePhaseTimer t(engine_prof_,
                               obs::HostEngineProfiler::Phase::Detach);
            detach_completed();
        }

        // Jump only on an idle cycle (no core dispatched or issued):
        // a busy cycle almost always has work next cycle too, and
        // skipping the per-core next_work_cycle scan on busy cycles is
        // what keeps the engine cheaper than per-cycle ticking — the
        // first idle cycle of a stretch pays for one scan, then the
        // whole stretch is jumped. And only while kernels remain: the
        // per-cycle engine exits the moment all_done() holds, leaving
        // any still-scheduled events (trailing writebacks, stale
        // wakeups) unrun — jumping here would run them and diverge the
        // hierarchy stats.
        if (!per_cycle && !progress && !all_done()) {
            obs::EnginePhaseTimer t(engine_prof_,
                               obs::HostEngineProfiler::Phase::Events);
            advance_clock(deadline);
        }
    }

    // Retries of the last event step go into the profiler's next
    // sample, taken by a later run or by another Gpu sharing it.
    if (profiler_ != nullptr)
        profiler_->add_dram_retries(hier_.stats().get("dram_retries") -
                                    retries_reported);
    if (!all_done())
        throw SimulationError(
            "Gpu::run: cycle budget exhausted (possible livelock)");
}

KernelResult
Gpu::result(std::size_t index) const
{
    if (index >= launched_.size())
        fatal("Gpu::result: bad launch index");
    const Launched &l = launched_[index];

    KernelResult r;
    r.name = l.state->program.name;
    r.kernel_id = l.state->kernel_id;
    r.tenant = l.state->tenant;
    r.start_cycle = l.exec->start_cycle;
    r.end_cycle = l.exec->end_cycle;
    r.aborted = l.exec->aborted;
    r.stats = l.exec->stats;
    for (const auto &core : cores_) {
        for (const Violation &v : core->shield().violations())
            if (v.kernel == l.state->kernel_id)
                r.violations.push_back(v);
        if (const ShieldBackend *alt = core->alt_shield())
            for (const Violation &v : alt->violations())
                if (v.kernel == l.state->kernel_id)
                    r.violations.push_back(v);
    }
    return r;
}

LaunchState &
Gpu::launch_state(std::size_t index)
{
    if (index >= launched_.size())
        fatal("Gpu::launch_state: bad launch index");
    return *launched_[index].state;
}

StatSet
Gpu::rcache_stats() const
{
    StatSet agg;
    for (const auto &core : cores_) {
        agg.merge(core->shield().metadata_stats());
        if (const ShieldBackend *alt = core->alt_shield())
            agg.merge(alt->metadata_stats());
    }
    return agg;
}

StatSet
Gpu::bcu_stats() const
{
    StatSet agg;
    for (const auto &core : cores_) {
        agg.merge(core->shield().stats());
        if (const ShieldBackend *alt = core->alt_shield())
            agg.merge(alt->stats());
    }
    return agg;
}

void
Gpu::set_profiler(obs::Profiler *profiler)
{
    profiler_ = profiler;
    for (auto &core : cores_)
        core->set_profiler(profiler);
}

void
Gpu::set_lane_observer(LaneObserver *obs)
{
    lane_obs_ = obs;
    for (auto &core : cores_)
        core->set_lane_observer(obs);
}

double
Gpu::rcache_l1_hit_rate() const
{
    const StatSet agg = rcache_stats();
    return agg.ratio("l1_hits", "lookups");
}

} // namespace gpushield
