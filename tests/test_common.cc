/**
 * @file
 * Unit tests for the common utilities: bit manipulation, the PRNG, the
 * statistics registry, and the event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>
#include <vector>

#include "common/bitutil.h"
#include "common/decimal.h"
#include "common/event_queue.h"
#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace gpushield {
namespace {

TEST(BitUtil, IsPow2)
{
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(2));
    EXPECT_TRUE(is_pow2(4096));
    EXPECT_TRUE(is_pow2(std::uint64_t{1} << 63));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(3));
    EXPECT_FALSE(is_pow2(4097));
}

TEST(BitUtil, AlignUpDown)
{
    EXPECT_EQ(align_up(0, 512), 0u);
    EXPECT_EQ(align_up(1, 512), 512u);
    EXPECT_EQ(align_up(512, 512), 512u);
    EXPECT_EQ(align_up(513, 512), 1024u);
    EXPECT_EQ(align_down(513, 512), 512u);
    EXPECT_EQ(align_down(511, 512), 0u);
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(log2_floor(1), 0u);
    EXPECT_EQ(log2_floor(2), 1u);
    EXPECT_EQ(log2_floor(3), 1u);
    EXPECT_EQ(log2_floor(1024), 10u);
    EXPECT_EQ(log2_ceil(1), 0u);
    EXPECT_EQ(log2_ceil(3), 2u);
    EXPECT_EQ(log2_ceil(1024), 10u);
    EXPECT_EQ(log2_ceil(1025), 11u);
}

TEST(BitUtil, BitsExtractInsert)
{
    const std::uint64_t v = 0xABCD'1234'5678'9ABCull;
    EXPECT_EQ(bits(v, 0, 16), 0x9ABCu);
    EXPECT_EQ(bits(v, 48, 16), 0xABCDu);
    EXPECT_EQ(bits(v, 62, 2), 0x2u);
    const std::uint64_t w = insert_bits(v, 48, 14, 0x1FFF);
    EXPECT_EQ(bits(w, 48, 14), 0x1FFFu);
    EXPECT_EQ(bits(w, 0, 48), bits(v, 0, 48));
    EXPECT_EQ(bits(w, 62, 2), bits(v, 62, 2));
}

TEST(Decimal, AcceptsOnlyRangeCheckedDigits)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(parse_decimal("42", 1, 100, v));
    EXPECT_EQ(v, 42u);
    EXPECT_TRUE(parse_decimal("18446744073709551615", 0, UINT64_MAX, v));
    EXPECT_EQ(v, UINT64_MAX);
    for (const char *bad : {"", "abc", "-1", "+1", " 1", "1 ", "1.5", "1e3",
                            "0x10", "18446744073709551616", "0", "101"})
        EXPECT_FALSE(parse_decimal(bad, 1, 100, v)) << bad;
    EXPECT_EQ(v, UINT64_MAX); // untouched by every rejection
}

TEST(Json, QuoteRoundTripsEveryByteAndOtherEscapesThrow)
{
    std::string all(1, '\0');
    for (int c = 1; c < 256; ++c)
        all += static_cast<char>(c);
    EXPECT_EQ(parse_json(json_quote(all)).as_string(), all);
    for (const char *bad : {"\"\\u0020\"", "\"\\u00e9\"", "\"\\u12\"",
                            "\"\\ud800\"", "\"\\x41\""})
        EXPECT_THROW(parse_json(bad), SimulationError) << bad;

    EXPECT_EQ(parse_json("18446744073709551615").as_u64(), UINT64_MAX);
    for (const char *bad : {"-1", "1.5", "1e3", "18446744073709551616",
                            "\"7\"", "true"})
        EXPECT_THROW(parse_json(bad).as_u64(), SimulationError) << bad;
    EXPECT_THROW(parse_json("1").as_string(), SimulationError);
    EXPECT_THROW(parse_json("\"x\"").as_bool(), SimulationError);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next64() != b.next64();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Stats, AddGetRatio)
{
    StatSet s;
    EXPECT_EQ(s.get("missing"), 0u);
    s.add("hits", 3);
    s.add("hits");
    s.add("accesses", 8);
    EXPECT_EQ(s.get("hits"), 4u);
    EXPECT_DOUBLE_EQ(s.ratio("hits", "accesses"), 0.5);
    EXPECT_DOUBLE_EQ(s.ratio("hits", "missing"), 0.0);
}

TEST(Stats, MergeAndDump)
{
    StatSet a, b;
    a.add("x", 1);
    b.add("x", 2);
    b.add("y", 5);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 3u);
    EXPECT_EQ(a.get("y"), 5u);
    std::ostringstream os;
    a.dump(os, "pre.");
    EXPECT_NE(os.str().find("pre.x 3"), std::string::npos);
    EXPECT_NE(os.str().find("pre.y 5"), std::string::npos);
}

TEST(Stats, MergeIsCommutativeAndAssociative)
{
    // Per-thread sweep shards aggregate via merge(); ordering must not
    // matter. Exercise with randomized overlapping counter sets.
    Rng rng(0xC0FFEEull);
    const char *names[] = {"a", "b", "c", "d", "e"};
    for (int trial = 0; trial < 50; ++trial) {
        StatSet a, b, c;
        for (const char *n : names) {
            if (rng.chance(0.7))
                a.add(n, rng.below(1000));
            if (rng.chance(0.7))
                b.add(n, rng.below(1000));
            if (rng.chance(0.7))
                c.add(n, rng.below(1000));
        }

        StatSet ab = a, ba = b;
        ab.merge(b);
        ba.merge(a);
        EXPECT_TRUE(ab == ba);

        StatSet ab_c = ab, a_bc = b;
        ab_c.merge(c);
        a_bc.merge(c);
        StatSet left = a;
        left.merge(a_bc);
        EXPECT_TRUE(ab_c == left);
    }
}

TEST(Stats, InternedHandlesMatchStringKeys)
{
    // The hot-path Counter handles must be observationally identical to
    // string-keyed add(): same get()/dump()/==, merge-compatible.
    StatSet via_handles, via_strings;
    StatSet::Counter hits = via_handles.counter("hits");
    StatSet::Counter misses = via_handles.counter("misses");

    for (int i = 0; i < 7; ++i)
        ++hits;
    misses += 3;
    hits += 5;

    via_strings.add("hits", 7);
    via_strings.add("misses", 3);
    via_strings.add("hits", 5);

    EXPECT_EQ(via_handles.get("hits"), 12u);
    EXPECT_EQ(via_handles.get("misses"), 3u);
    EXPECT_TRUE(via_handles == via_strings);

    std::ostringstream oh, os;
    via_handles.dump(oh, "p.");
    via_strings.dump(os, "p.");
    EXPECT_EQ(oh.str(), os.str());
}

TEST(Stats, UntouchedHandlesStayInvisible)
{
    // Interning a counter must not make it appear in output until it is
    // actually bumped (or set()): sweep JSONL records rely on untouched
    // stats serializing as an empty object.
    StatSet s;
    StatSet::Counter idle = s.counter("idle");
    EXPECT_TRUE(s.counters().empty());
    EXPECT_EQ(s.get("idle"), 0u);
    EXPECT_TRUE(s.counters().empty());

    ++idle;
    EXPECT_EQ(s.get("idle"), 1u);
    ASSERT_EQ(s.counters().size(), 1u);

    // clear() resets but keeps the handle usable.
    s.clear();
    EXPECT_TRUE(s.counters().empty());
    ++idle;
    EXPECT_EQ(s.get("idle"), 1u);
}

TEST(Stats, HandleAndStringUpdatesCombine)
{
    // Mixed use on the same name accumulates into one counter, and
    // merge() sees the combined value.
    StatSet s;
    StatSet::Counter c = s.counter("n");
    c += 2;
    s.add("n", 3);
    c += 1;
    EXPECT_EQ(s.get("n"), 6u);

    StatSet other;
    other.merge(s);
    EXPECT_EQ(other.get("n"), 6u);
}

TEST(EventQueue, OrderedByCycleThenSeq)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(3); }); // same cycle: FIFO
    eq.run_until(20);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ScheduleFromCallback)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule_in(2, [&] { ++fired; });
    });
    eq.run_until(10);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepAdvancesOneCycle)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    eq.step();
    EXPECT_EQ(eq.now(), 1u);
    EXPECT_EQ(fired, 1);
    eq.step();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, NextEventCycle)
{
    EventQueue eq;
    EXPECT_EQ(eq.next_event_cycle(), kCycleMax);
    eq.schedule(42, [] {});
    EXPECT_EQ(eq.next_event_cycle(), 42u);
}

TEST(EventQueue, SameCycleScheduleDuringDispatchRunsInSeqOrder)
{
    // Scheduling at now() from inside a callback dispatching at now()
    // is legal (it used to panic as a boundary violation): the new
    // event runs in the same cycle, after everything already queued
    // there, with sequence numbers breaking the tie.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(1);
        eq.schedule(5, [&] { order.push_back(3); }); // at now(), mid-dispatch
    });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.run_until(5);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DispatchNeverCopiesCallbacks)
{
    // Dispatch moves each event out of the heap; a callback that is
    // copied per event costs an allocation on the hottest host path.
    struct CountCopies
    {
        unsigned *copies;
        unsigned *calls;
        CountCopies(unsigned *c, unsigned *n) : copies(c), calls(n) {}
        CountCopies(const CountCopies &o) : copies(o.copies), calls(o.calls)
        {
            ++*copies;
        }
        CountCopies(CountCopies &&) = default;
        void operator()() const { ++*calls; }
    };
    unsigned copies = 0;
    unsigned calls = 0;
    EventQueue eq;
    for (const Cycle when : {5, 3, 9, 3, 1, 7})
        eq.schedule(when, CountCopies(&copies, &calls));
    copies = 0;
    eq.run_until(10);
    EXPECT_EQ(calls, 6u);
    EXPECT_EQ(copies, 0u);
}

TEST(EventQueue, NextSeqGrowsByOnePerSchedule)
{
    EventQueue eq;
    EXPECT_EQ(eq.next_seq(), 0u);
    eq.schedule(4, [] {});
    EXPECT_EQ(eq.next_seq(), 1u);
    eq.schedule_in(1, [] {});
    EXPECT_EQ(eq.next_seq(), 2u);
    eq.run_until(10); // dispatch takes no sequence number
    EXPECT_EQ(eq.next_seq(), 2u);
}

TEST(EventQueue, PastScheduleClampsToNow)
{
    // Under the event-driven engine the clock can jump past a stale
    // busy-cursor; latency arithmetic may then ask for a cycle that
    // already passed. The earliest legal service time is now().
    EventQueue eq;
    eq.run_until(100);
    int fired_at = -1;
    eq.schedule(40, [&] { fired_at = static_cast<int>(eq.now()); });
    EXPECT_EQ(eq.next_event_cycle(), 100u);
    eq.step();
    EXPECT_EQ(fired_at, 100);
    EXPECT_EQ(eq.now(), 101u);
}

TEST(EventQueue, FarAndNearEventsOfOneCycleKeepSeqOrder)
{
    // An event scheduled beyond the horizon waits in the far heap; one
    // scheduled for the same cycle once it is within the horizon goes
    // straight to its slot. The far one took the lower seq, so it must
    // reach the slot first: both when the clock gets there at the end
    // of run_until and when it gets there by dispatching an event.
    constexpr Cycle kWhen = EventQueue::kHorizon + 10;
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(kWhen, [&] { order.push_back(1); });
    eq.run_until(20);
    eq.schedule(kWhen, [&] { order.push_back(2); });
    eq.schedule(kWhen - 1, [&] { order.push_back(0); });
    eq.run_until(kWhen);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

    EventQueue eq2;
    order.clear();
    eq2.schedule(kWhen, [&] { order.push_back(1); });
    eq2.schedule(15, [&] {
        eq2.schedule(kWhen, [&] { order.push_back(2); });
    });
    eq2.run_until(kWhen);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(eq2.empty());
}

TEST(EventQueue, ClockJumpLongerThanHorizon)
{
    // A jump over several horizons dispatches the events in between in
    // order and leaves the later ones pending at their own cycles; a
    // slot reused after the jump holds only its new cycle's events.
    constexpr Cycle kH = EventQueue::kHorizon;
    EventQueue eq;
    std::vector<Cycle> fired;
    const auto note = [&] { fired.push_back(eq.now()); };
    for (const Cycle when : {3 * kH + 7, Cycle{5}, kH - 1, kH, 10 * kH})
        eq.schedule(when, note);
    EXPECT_EQ(eq.next_event_cycle(), 5u);
    eq.run_until(3 * kH);
    EXPECT_EQ(fired, (std::vector<Cycle>{5, kH - 1, kH}));
    EXPECT_EQ(eq.now(), 3 * kH);
    EXPECT_EQ(eq.next_event_cycle(), 3 * kH + 7);
    eq.schedule_in(kH + 7, note); // same slot index as 3 * kH + 7
    eq.schedule_in(7, note);
    eq.run_until(4 * kH + 7);
    EXPECT_EQ(fired, (std::vector<Cycle>{5, kH - 1, kH, 3 * kH + 7,
                                         3 * kH + 7, 4 * kH + 7}));
    EXPECT_EQ(eq.next_event_cycle(), 10 * kH);
    eq.run_until(20 * kH);
    EXPECT_EQ(fired.back(), 10 * kH);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.next_event_cycle(), kCycleMax);
}

TEST(EventQueue, ScheduleAtNowAfterFarEventsArrive)
{
    // Events that came from beyond the horizon dispatch in seq order,
    // and one of them scheduling at now() appends behind them all.
    constexpr Cycle kWhen = 3 * EventQueue::kHorizon;
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(kWhen, [&] {
        order.push_back(1);
        eq.schedule(eq.now(), [&] { order.push_back(3); });
    });
    eq.schedule(kWhen, [&] { order.push_back(2); });
    eq.run_until(kWhen);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RandomScheduleMatchesSortByCycleThenSeq)
{
    // Seeded traffic: schedules from outside and from inside callbacks,
    // at now(), in the past (clamped), near, around the horizon and far
    // beyond it, under single steps and long jumps. Every event must
    // run at its cycle, in (cycle, seq) order.
    constexpr Cycle kH = EventQueue::kHorizon;
    Rng rng(20);
    EventQueue eq;
    std::vector<Cycle> when_of; // indexed by seq
    std::vector<std::uint64_t> dispatched;
    const auto delay = [&]() -> Cycle {
        switch (rng.below(5)) {
          case 0: return 0;
          case 1: return rng.below(8);
          case 2: return kH - 2 + rng.below(5);
          case 3: return rng.below(4 * kH);
          default: return rng.below(64);
        }
    };
    std::function<void(Cycle)> add = [&](Cycle when) {
        const std::uint64_t seq = eq.next_seq();
        ASSERT_EQ(seq, when_of.size());
        when_of.push_back(std::max(when, eq.now()));
        const bool spawn = when_of.size() < 20'000 && rng.chance(0.6);
        eq.schedule(when, [&, seq, spawn] {
            EXPECT_EQ(eq.now(), when_of[seq]);
            dispatched.push_back(seq);
            if (spawn)
                add(rng.chance(0.1) && eq.now() > 3 ? eq.now() - 3
                                                   : eq.now() + delay());
        });
    };
    while (when_of.size() < 20'000) {
        for (std::uint64_t n = rng.below(4); n > 0; --n)
            add(eq.now() + delay());
        if (rng.chance(0.8))
            eq.step();
        else
            eq.run_until(eq.now() + rng.below(3 * kH));
    }
    eq.run_until(eq.now() + 1'000 * kH);
    ASSERT_TRUE(eq.empty());

    std::vector<std::uint64_t> expected(when_of.size());
    for (std::uint64_t i = 0; i < expected.size(); ++i)
        expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::uint64_t a, std::uint64_t b) {
                         return when_of[a] < when_of[b];
                     });
    EXPECT_EQ(dispatched, expected);
}

} // namespace
} // namespace gpushield
