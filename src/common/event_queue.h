/**
 * @file
 * Cycle-ordered event queue driving the timing simulation.
 *
 * Events scheduled for the same cycle execute in scheduling order
 * (a monotonically increasing sequence number breaks ties), which keeps
 * simulations deterministic.
 *
 * The queue is a calendar. kHorizon per-cycle slots cover the cycles
 * [now(), now() + kHorizon); each slot is a FIFO list of nodes, and all
 * slots draw their nodes from one pool (a vector plus a free list). An
 * occupancy bitmap finds the next non-empty slot. An event scheduled
 * further ahead waits in a (cycle, seq) min-heap and moves into its
 * slot as soon as the clock brings its cycle within the horizon, before
 * any callback of that cycle runs. The order is exact: a slot holds one
 * cycle's events, every event of a slot's cycle that was scheduled from
 * beyond the horizon was scheduled before any that was scheduled from
 * within it and arrives in seq order, and appends happen in seq order.
 * Dispatch moves each callback out of its node, so a callback is never
 * copied.
 */

#ifndef GPUSHIELD_COMMON_EVENT_QUEUE_H
#define GPUSHIELD_COMMON_EVENT_QUEUE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace gpushield {

/** Calendar queue of (cycle, seq) ordered callbacks. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Cycles covered by the per-cycle slots, starting at now(). */
    static constexpr Cycle kHorizon = 1024;

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
        const std::uint32_t node = new_node(std::move(cb));
        if (when - now_ < kHorizon) {
            append(when, node);
        } else {
            far_.push_back(FarEvent{when, next_seq_, node});
            std::push_heap(far_.begin(), far_.end(), std::greater<>{});
        }
        ++next_seq_;
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
    bool empty() const { return near_ == 0 && far_.empty(); }

    /** Cycle of the earliest pending event; kCycleMax when empty. */
    Cycle
    next_event_cycle() const
    {
        if (near_ > 0)
            return next_near_cycle();
        return far_.empty() ? kCycleMax : far_.front().when;
    }

    /**
     * Runs all events scheduled at or before @p until, advancing now().
     * Afterwards now() == until. The clock never runs backwards: an
     * @p until before now() is an internal error.
     */
    void
    run_until(Cycle until)
    {
        if (until < now_)
            panic("event queue: run_until(" + std::to_string(until) +
                  ") before now() = " + std::to_string(now_));
        while (!empty()) {
            const Cycle when = next_event_cycle();
            if (when > until)
                break;
            advance_to(when);
            Slot &slot = slots_[when & kSlotMask];
            // A callback may append to this slot (schedule at now());
            // the loop reads the head afresh after each one.
            while (slot.head != kNil) {
                const std::uint32_t n = slot.head;
                Node &node = nodes_[n];
                slot.head = node.next;
                if (slot.head == kNil) {
                    slot.tail = kNil;
                    occupied_[(when & kSlotMask) / 64] &=
                        ~(std::uint64_t{1} << (when % 64));
                }
                // Move out before the call: the callback may schedule,
                // and a schedule may grow (and move) the pool.
                Callback cb = std::move(node.cb);
                node.next = free_;
                free_ = n;
                --near_;
                cb();
            }
        }
        advance_to(until);
    }

    /** Advances the clock by one cycle, running any due events. */
    void step() { run_until(now_ + 1); }

  private:
    static constexpr Cycle kSlotMask = kHorizon - 1;
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static_assert((kHorizon & kSlotMask) == 0 && kHorizon % 64 == 0,
                  "the horizon is a power of two of whole bitmap words");

    /** A pooled event: its callback and the next node of its slot (or
     *  of the free list). */
    struct Node
    {
        Callback cb;
        std::uint32_t next = kNil;
    };

    /** FIFO of one cycle's nodes. */
    struct Slot
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    /** An event beyond the horizon; its callback waits in @p node. */
    struct FarEvent
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t node;

        bool
        operator>(const FarEvent &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::uint32_t
    new_node(Callback &&cb)
    {
        if (free_ == kNil) {
            nodes_.push_back(Node{std::move(cb), kNil});
            return static_cast<std::uint32_t>(nodes_.size() - 1);
        }
        const std::uint32_t n = free_;
        free_ = nodes_[n].next;
        nodes_[n].cb = std::move(cb);
        nodes_[n].next = kNil;
        return n;
    }

    /** Appends @p node to the slot of cycle @p when, within the horizon. */
    void
    append(Cycle when, std::uint32_t node)
    {
        Slot &slot = slots_[when & kSlotMask];
        if (slot.tail == kNil) {
            slot.head = node;
            occupied_[(when & kSlotMask) / 64] |= std::uint64_t{1}
                                                  << (when % 64);
        } else {
            nodes_[slot.tail].next = node;
        }
        slot.tail = node;
        ++near_;
    }

    /** Sets the clock to @p t (no pending event before it) and moves
     *  every far event the horizon now covers into its slot, in
     *  (cycle, seq) order. */
    void
    advance_to(Cycle t)
    {
        now_ = t;
        while (!far_.empty() && far_.front().when - now_ < kHorizon) {
            std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
            append(far_.back().when, far_.back().node);
            far_.pop_back();
        }
    }

    /** Cycle of the first non-empty slot at or after now(); near_ > 0. */
    Cycle
    next_near_cycle() const
    {
        constexpr std::size_t kWords = kHorizon / 64;
        const Cycle start = now_ & kSlotMask;
        std::size_t w = start / 64;
        std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
        // The wrap back to the first word sees the slots before now().
        for (std::size_t i = 0; i <= kWords; ++i) {
            if (bits != 0) {
                const Cycle slot = w * 64 + std::countr_zero(bits);
                return now_ + ((slot - start) & kSlotMask);
            }
            w = (w + 1) % kWords;
            bits = occupied_[w];
        }
        panic("event queue: near events counted but no slot occupied");
    }

    std::array<Slot, kHorizon> slots_{};
    std::array<std::uint64_t, kHorizon / 64> occupied_{}; //!< slot bitmap
    std::vector<Node> nodes_;  //!< pool shared by every slot
    std::uint32_t free_ = kNil; //!< free-list head in nodes_
    std::size_t near_ = 0;      //!< events in slots
    std::vector<FarEvent> far_; //!< min-heap under std::greater<>
    Cycle now_ = 0;
    std::uint64_t next_seq_ = 0;
};

} // namespace gpushield

#endif // GPUSHIELD_COMMON_EVENT_QUEUE_H
