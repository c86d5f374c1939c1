/**
 * @file
 * Cycle-ordered event queue driving the timing simulation.
 *
 * Events scheduled for the same cycle execute in scheduling order
 * (a monotonically increasing sequence number breaks ties), which keeps
 * simulations deterministic. Dispatch moves each event out of the heap,
 * so a callback is never copied.
 */

#ifndef GPUSHIELD_COMMON_EVENT_QUEUE_H
#define GPUSHIELD_COMMON_EVENT_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace gpushield {

/** Min-heap of (cycle, seq) ordered callbacks. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /**
     * Schedules @p cb to run at absolute cycle @p when.
     *
     * Scheduling at now() is legal — including from inside a callback
     * that is currently dispatching at now() — and the new event runs
     * after every event already scheduled for the same cycle (sequence
     * numbers break ties). A @p when in the past is clamped to now():
     * under the event-driven engine the clock jumps straight to the
     * next interesting cycle, so latency arithmetic against a stale
     * busy-cursor can resolve to an already-passed cycle; the earliest
     * legal service time for such a request is the current cycle.
     */
    void
    schedule(Cycle when, Callback cb)
    {
        if (when < now_)
            when = now_;
        heap_.push_back(Event{when, next_seq_++, std::move(cb)});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }

    /** Schedules @p cb @p delta cycles from now. */
    void
    schedule_in(Cycle delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    /** Current simulation cycle. */
    Cycle now() const { return now_; }

    /**
     * Sequence number the next schedule() takes. It grows by one per
     * schedule(), so an unchanged value means nothing was scheduled in
     * between.
     */
    std::uint64_t next_seq() const { return next_seq_; }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Cycle of the earliest pending event; kCycleMax when empty. */
    Cycle
    next_event_cycle() const
    {
        return heap_.empty() ? kCycleMax : heap_.front().when;
    }

    /**
     * Runs all events scheduled at or before @p until, advancing now().
     * Afterwards now() == until.
     */
    void
    run_until(Cycle until)
    {
        while (!heap_.empty() && heap_.front().when <= until) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
            Event ev = std::move(heap_.back());
            heap_.pop_back();
            now_ = ev.when;
            ev.cb();
        }
        now_ = until;
    }

    /** Advances the clock by one cycle, running any due events. */
    void step() { run_until(now_ + 1); }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;

        bool
        operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::vector<Event> heap_; //!< min-heap under std::greater<>
    Cycle now_ = 0;
    std::uint64_t next_seq_ = 0;
};

} // namespace gpushield

#endif // GPUSHIELD_COMMON_EVENT_QUEUE_H
