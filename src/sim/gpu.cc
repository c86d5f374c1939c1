#include "sim/gpu.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

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
    if (state.shield_enabled && state.shield_backend != cfg_.shield.backend) {
        // Its pointers would not decode on this GPU's hardware.
        state.driver->finish(state);
        throw SimulationError(
            std::string("Gpu::launch: kernel ") + state.program.name +
            " was signed for the " + to_string(state.shield_backend) +
            " shield backend, and this GPU runs " +
            to_string(cfg_.shield.backend));
    }
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
Gpu::done() const
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
Gpu::attribute(Cycle from, Cycle n)
{
    // Cut the stretch where sampling intervals end, so each sample
    // holds exactly its own interval's warp-cycles. Only the first
    // piece carries retries: nothing runs inside a stretch.
    const Cycle interval = profiler_->sample_interval();
    for (Cycle len; n > 0; from += len, n -= len) {
        len = std::min(n, interval - from % interval);
        for (auto &core : cores_)
            core->profile_cycles(from, len);
        const std::uint64_t retries = hier_.stats().get("dram_retries");
        profiler_->end_cycles(from + len - 1, len,
                              hier_.dram().total_queued(),
                              retries - std::exchange(retries_reported_,
                                                      retries));
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

    if (target == kCycleMax) // run() jumps only with a kernel left
        throw SimulationError(
            "Gpu::run: no core has schedulable work and the event "
            "queue is empty (simulation deadlock)");
    target = std::min(target, deadline);
    if (target > eq_.now()) {
        if (profiler_ != nullptr)
            attribute(eq_.now(), target - eq_.now());
        cycles_skipped_ += target - eq_.now();
        eq_.run_until(target);
    }
}

bool
Gpu::step()
{
    bool progress = false;
    {
        obs::EnginePhaseTimer t(engine_prof_,
                                obs::HostEngineProfiler::Phase::Issue);
        for (auto &core : cores_)
            progress |= core->tick();
    }

    // Attribute this cycle before the queue advances so workgroup
    // residency and counted warp-cycles agree exactly.
    if (profiler_ != nullptr)
        attribute(eq_.now(), 1);

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
    return progress;
}

void
Gpu::run()
{
    const Cycle deadline = eq_.now() + cfg_.max_cycles;
    while (!done() && eq_.now() < deadline) {
        // Jump only on an idle cycle (no core dispatched or issued): a
        // busy cycle almost always has work next cycle too, so busy
        // cycles skip the per-core next_work_cycle scan, and the first
        // idle cycle of a stretch pays for one scan that jumps it all.
        // And only while kernels remain: stepping ends the moment
        // done() holds, leaving still-scheduled events (trailing
        // writebacks, stale wakeups) unrun.
        if (!step() && !done()) {
            obs::EnginePhaseTimer t(engine_prof_,
                                    obs::HostEngineProfiler::Phase::Events);
            advance_clock(deadline);
        }
    }

    // Retries of the last event step go into the profiler's next
    // sample, taken by a later run or by another Gpu sharing it.
    if (profiler_ != nullptr) {
        const std::uint64_t retries = hier_.stats().get("dram_retries");
        profiler_->add_dram_retries(
            retries - std::exchange(retries_reported_, retries));
    }
    if (!done())
        throw SimulationError(
            "Gpu::run: cycle budget exhausted (possible livelock)");
}

KernelResult
Gpu::result(std::size_t index) const
{
    if (index >= launched_.size())
        throw std::out_of_range("Gpu::result: bad launch index");
    const Launched &l = launched_[index];

    KernelResult r;
    r.name = l.state->program.name;
    r.kernel_id = l.state->kernel_id;
    r.tenant = l.state->tenant;
    r.start_cycle = l.exec->start_cycle;
    r.end_cycle = l.exec->end_cycle;
    r.aborted = l.exec->aborted;
    r.stats = l.exec->stats;
    for (const auto &core : cores_)
        for (const Violation &v : core->shield().violations())
            if (v.kernel == l.state->kernel_id)
                r.violations.push_back(v);
    return r;
}

LaunchState &
Gpu::launch_state(std::size_t index)
{
    if (index >= launched_.size())
        throw std::out_of_range("Gpu::launch_state: bad launch index");
    return *launched_[index].state;
}

StatSet
Gpu::rcache_stats() const
{
    StatSet agg;
    for (const auto &core : cores_)
        agg.merge(core->shield().metadata_stats());
    return agg;
}

StatSet
Gpu::bcu_stats() const
{
    StatSet agg;
    for (const auto &core : cores_)
        agg.merge(core->shield().stats());
    return agg;
}

void
Gpu::set_profiler(obs::Profiler *profiler)
{
    profiler_ = profiler;
    retries_reported_ = hier_.stats().get("dram_retries");
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
