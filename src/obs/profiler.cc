#include "obs/profiler.h"

#include <algorithm>
#include <ostream>

#include "common/json.h"
#include "common/log.h"

namespace gpushield::obs {

const char *
to_string(StallCause cause)
{
    switch (cause) {
    case StallCause::Issued: return "issued";
    case StallCause::Scoreboard: return "scoreboard";
    case StallCause::LsuBusy: return "lsu_busy";
    case StallCause::BcuStall: return "bcu_stall";
    case StallCause::RcacheMiss: return "rcache_miss";
    case StallCause::MemPending: return "mem_pending";
    case StallCause::DramBackpressure: return "dram_backpressure";
    case StallCause::Barrier: return "barrier";
    case StallCause::NoWork: return "no_work";
    }
    return "unknown";
}

std::uint64_t
WarpStallBreakdown::total() const
{
    std::uint64_t sum = 0;
    for (const auto c : cycles)
        sum += c;
    return sum;
}

double
ProfileSummary::fraction(StallCause cause) const
{
    if (warp_cycles == 0)
        return 0.0;
    return static_cast<double>(
               cause_cycles[static_cast<std::size_t>(cause)]) /
           static_cast<double>(warp_cycles);
}

StatSet
ProfileSummary::to_statset() const
{
    StatSet s;
    if (!enabled)
        return s;
    s.set("profiled_cycles", cycles);
    s.set("warp_cycles", warp_cycles);
    for (std::size_t i = 0; i < kNumStallCauses; ++i)
        s.set(std::string("stall.") +
                  to_string(static_cast<StallCause>(i)),
              cause_cycles[i]);
    return s;
}

Profiler::Profiler(Cycle sample_interval)
    : sample_interval_(sample_interval == 0 ? 1 : sample_interval)
{
}

Profiler::CoreState &
Profiler::core_state(CoreId core)
{
    if (core >= cores_.size())
        cores_.resize(core + 1);
    return cores_[core];
}

void
Profiler::on_workgroup_start(CoreId core, unsigned slot, KernelId kernel,
                             std::uint32_t wg_index, unsigned warps,
                             Cycle now)
{
    CoreState &cs = core_state(core);
    if (slot >= cs.active.size())
        cs.active.resize(slot + 1, -1);
    WorkgroupSpan span;
    span.core = core;
    span.slot = slot;
    span.kernel = kernel;
    span.wg_index = wg_index;
    span.start = base_ + now;
    span.warps.resize(warps);
    cs.active[slot] = static_cast<int>(workgroups_.size());
    workgroups_.push_back(std::move(span));
}

void
Profiler::on_workgroup_end(CoreId core, unsigned slot, Cycle now)
{
    CoreState &cs = core_state(core);
    if (slot >= cs.active.size() || cs.active[slot] < 0)
        return;
    WorkgroupSpan &wg = workgroups_[cs.active[slot]];
    wg.end = base_ + now;
    wg.open = false;
    cs.active[slot] = -1;
}

void
Profiler::on_kernel_span(KernelId kernel, const std::string &name,
                         Cycle start, Cycle end, bool aborted,
                         TenantId tenant)
{
    kernels_.push_back(
        {kernel, tenant, name, base_ + start, base_ + end, aborted});
}

void
Profiler::end_cycles(Cycle last, Cycle cycles, unsigned dram_queued,
                     std::uint64_t dram_retries)
{
    profiled_cycles_ += cycles;
    last_ts_ = base_ + last;
    interval_dram_retries_ += dram_retries;
    // Sample once per interval, on the interval boundary. The interval
    // accumulators divide by the interval length to give averages.
    if ((last + 1) % sample_interval_ != 0)
        return;
    const double denom = static_cast<double>(sample_interval_);
    const Cycle ts = base_ + last;
    for (CoreState &cs : cores_) {
        cs.occupancy.push_back(
            {ts, static_cast<double>(cs.interval_warp_cycles) / denom});
        cs.ipc.push_back(
            {ts, static_cast<double>(cs.interval_issued) / denom});
        cs.interval_warp_cycles = 0;
        cs.interval_issued = 0;
    }
    dram_queue_series_.push_back({ts, static_cast<double>(dram_queued)});
    dram_retry_series_.push_back(
        {ts, static_cast<double>(interval_dram_retries_) / denom});
    interval_dram_retries_ = 0;
}

ProfileSummary
Profiler::summary() const
{
    ProfileSummary s;
    s.enabled = true;
    s.cycles = profiled_cycles_;
    for (const CoreState &cs : cores_)
        for (std::size_t i = 0; i < kNumStallCauses; ++i)
            s.cause_cycles[i] += cs.totals[i];
    for (const auto c : s.cause_cycles)
        s.warp_cycles += c;
    return s;
}

std::array<std::uint64_t, kNumStallCauses>
Profiler::core_stalls(CoreId core) const
{
    if (core < cores_.size())
        return cores_[core].totals;
    return {};
}

namespace {

class EventSink
{
  public:
    explicit EventSink(std::ostream &os) : os_(os) {}

    /** Starts one trace event object; caller writes fields then end(). */
    std::ostream &
    begin()
    {
        if (!first_)
            os_ << ",\n";
        first_ = false;
        os_ << "  {";
        return os_;
    }

    void end() { os_ << "}"; }

    void
    metadata(int pid, const std::string &name)
    {
        begin() << "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
                << ",\"tid\":0,\"args\":{\"name\":" << json_quote(name)
                << "}";
        end();
    }

    void
    counter(int pid, const std::string &name, Cycle ts, double value)
    {
        begin() << "\"name\":" << json_quote(name)
                << ",\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":0,\"ts\":"
                << ts << ",\"args\":{\"value\":" << value << "}";
        end();
    }

  private:
    std::ostream &os_;
    bool first_ = true;
};

} // namespace

void
Profiler::write_chrome_trace(std::ostream &os) const
{
    // Trace process layout: pid 0 = kernel phases, pid 50 = memory
    // counters, pid 100+c = SM c. "ts" is in simulated cycles; Perfetto
    // renders them as microseconds, which is harmless for analysis.
    constexpr int kKernelPid = 0;
    constexpr int kMemoryPid = 50;
    constexpr int kCorePidBase = 100;

    os << "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
    EventSink sink(os);

    sink.metadata(kKernelPid, "kernels");
    sink.metadata(kMemoryPid, "memory");
    for (std::size_t c = 0; c < cores_.size(); ++c)
        sink.metadata(kCorePidBase + static_cast<int>(c),
                      "SM " + std::to_string(c));

    for (const KernelSpan &k : kernels_) {
        std::ostream &ev = sink.begin();
        ev << "\"name\":" << json_quote(k.name)
           << ",\"ph\":\"X\",\"pid\":" << kKernelPid
           << ",\"tid\":" << k.kernel << ",\"ts\":" << k.start
           << ",\"dur\":" << (k.end - k.start)
           << ",\"args\":{\"kernel_id\":" << k.kernel
           << ",\"cycles\":" << (k.end - k.start)
           << ",\"aborted\":" << (k.aborted ? "true" : "false");
        // Tenant tag only in service mode: single-tenant traces stay
        // byte-identical to pre-service output.
        if (k.tenant != 0)
            ev << ",\"tenant\":" << k.tenant;
        ev << "}";
        sink.end();
    }

    for (const WorkgroupSpan &wg : workgroups_) {
        // A workgroup still open (kernel killed mid-run) ends at the
        // last profiled cycle so its slice stays visible.
        const Cycle end =
            wg.open ? std::max(last_ts_ + 1, wg.start) : wg.end;
        std::ostream &ev = sink.begin();
        ev << "\"name\":\"wg " << wg.wg_index << " (k" << wg.kernel
           << ")\",\"ph\":\"X\",\"pid\":"
           << (kCorePidBase + static_cast<int>(wg.core))
           << ",\"tid\":" << (wg.slot + 1) << ",\"ts\":" << wg.start
           << ",\"dur\":" << (end - wg.start)
           << ",\"args\":{\"kernel\":" << wg.kernel
           << ",\"resident_cycles\":" << (end - wg.start)
           << ",\"warps\":" << wg.warps.size();
        for (std::size_t i = 0; i < kNumStallCauses; ++i) {
            std::uint64_t sum = 0;
            for (const WarpStallBreakdown &w : wg.warps)
                sum += w.cycles[i];
            ev << ",\"" << to_string(static_cast<StallCause>(i))
               << "\":" << sum;
        }
        ev << "}";
        sink.end();
    }

    for (std::size_t c = 0; c < cores_.size(); ++c) {
        const int pid = kCorePidBase + static_cast<int>(c);
        for (const CounterSample &s : cores_[c].occupancy)
            sink.counter(pid, "occupancy", s.ts, s.value);
        for (const CounterSample &s : cores_[c].ipc)
            sink.counter(pid, "ipc", s.ts, s.value);
    }
    for (const CounterSample &s : dram_queue_series_)
        sink.counter(kMemoryPid, "dram_queue", s.ts, s.value);
    for (const CounterSample &s : dram_retry_series_)
        sink.counter(kMemoryPid, "dram_retries", s.ts, s.value);

    os << "\n]\n}\n";
}

} // namespace gpushield::obs
