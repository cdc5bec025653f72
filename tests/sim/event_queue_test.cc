/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/small_function.hh"

namespace ltp
{
namespace
{

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&] { order.push_back(3); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, FifoWithinSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(100, [&] {
        eq.scheduleIn(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}




TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleAt(1, [&] { ++count; });
    eq.scheduleAt(2, [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    for (Tick t = 10; t <= 100; t += 10)
        eq.scheduleAt(t, [&, t] { ticks.push_back(t); });
    eq.runUntil(50);
    EXPECT_EQ(ticks.size(), 5u);
    EXPECT_EQ(eq.size(), 5u);
    // The remaining events still run afterwards.
    eq.run();
    EXPECT_EQ(ticks.size(), 10u);
}

TEST(EventQueue, RunUntilExecutesEventAtLimit)
{
    EventQueue eq;
    bool ran = false;
    eq.scheduleAt(50, [&] { ran = true; });
    eq.runUntil(50);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, EventsScheduledDuringRunExecute)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            eq.scheduleIn(1, recurse);
    };
    eq.scheduleAt(0, recurse);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 4u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.scheduleAt(i, [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 7u);
}

// ---- slot pooling ----------------------------------------------------------

TEST(EventQueue, SlotPoolStopsGrowingInSteadyState)
{
    EventQueue eq;
    // A self-rescheduling chain keeps at most 2 events pending; the
    // arena must reach its high-water mark and then stay flat.
    int remaining = 10000;
    std::function<void()> chain = [&] {
        if (--remaining > 0) {
            eq.scheduleIn(1, chain);
            eq.scheduleIn(2, [] {});
        }
    };
    eq.scheduleAt(0, chain);
    for (int i = 0; i < 100; ++i)
        eq.step();
    std::size_t plateau = eq.poolSlots();
    eq.run();
    EXPECT_EQ(eq.poolSlots(), plateau);
    EXPECT_EQ(remaining, 0);
}

TEST(EventQueue, FarFutureEventsInterleaveWithNearOnes)
{
    // Exercises the overflow area: delays far beyond the calendar window
    // must still execute in global time order, FIFO within a tick.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(1000000, [&] { order.push_back(3); });
    eq.scheduleAt(1000000, [&] { order.push_back(4); });
    eq.scheduleAt(5, [&] {
        order.push_back(1);
        eq.scheduleAt(999999, [&] { order.push_back(2); });
        eq.scheduleAt(1000001, [&] { order.push_back(5); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), 1000001u);
}

TEST(EventQueue, RunUntilBoundaryWithFarFutureEvents)
{
    EventQueue eq;
    int ran = 0;
    eq.scheduleAt(10, [&] { ++ran; });
    eq.scheduleAt(100000, [&] { ++ran; });
    EXPECT_EQ(eq.runUntil(50000), 10u); // now() stays at the last event
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.now(), 100000u);
}

/**
 * Randomized stress: interleaved schedule / step under heavy slot reuse,
 * checked against a reference model (an ordered map keyed by
 * (tick, seq)). Execution order must match the model exactly —
 * absolute-tick order, FIFO within a tick.
 */
TEST(EventQueue, RandomizedStressMatchesReferenceModel)
{
    std::mt19937_64 rng(12345);
    EventQueue eq;

    std::map<std::pair<Tick, std::uint64_t>, std::uint64_t> model;
    std::vector<std::uint64_t> executed; // tokens, in executed order
    std::uint64_t nextToken = 0, seq = 0;

    auto scheduleOne = [&](Tick when) {
        std::uint64_t token = nextToken++;
        std::uint64_t s = seq++;
        eq.scheduleAt(when, [&executed, token] {
            executed.push_back(token);
        });
        model.emplace(std::make_pair(when, s), token);
    };

    for (int round = 0; round < 2000; ++round) {
        unsigned action = rng() % 8;
        if (action < 6) {
            // Mix near, same-tick, and far-future (overflow) delays.
            Tick delay = (rng() % 100 == 0) ? 5000 + rng() % 5000
                                            : rng() % 300;
            scheduleOne(eq.now() + delay);
        } else {
            // Execute a few steps; each must match the model's front.
            for (int k = 0; k < 3 && !model.empty(); ++k) {
                std::size_t before = executed.size();
                ASSERT_TRUE(eq.step());
                ASSERT_EQ(executed.size(), before + 1);
                EXPECT_EQ(executed.back(), model.begin()->second);
                model.erase(model.begin());
            }
        }
        ASSERT_EQ(eq.size(), model.size());
    }

    while (!model.empty()) {
        ASSERT_TRUE(eq.step());
        EXPECT_EQ(executed.back(), model.begin()->second);
        model.erase(model.begin());
    }
    EXPECT_FALSE(eq.step());
    EXPECT_TRUE(eq.empty());
}

// ---- channel-keyed same-tick tie-break (the direct-dispatch order) ----

TEST(EventQueueChannel, SameTickOrdersByChannelIdNotScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Scheduled high channel first: execution must sort by channel id.
    eq.scheduleAtChannel(10, 9, [&] { order.push_back(9); });
    eq.scheduleAtChannel(10, 3, [&] { order.push_back(3); });
    eq.scheduleAtChannel(10, 7, [&] { order.push_back(7); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{3, 7, 9}));
}

TEST(EventQueueChannel, FifoWithinOneChannel)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.scheduleAtChannel(10, 42, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueChannel, LocalsRunBeforeSameTickChannelPosts)
{
    // A tick's scheduleAt() events precede its channel posts even when
    // the posts were scheduled first.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAtChannel(10, 1, [&] { order.push_back(100); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAtChannel(10, 2, [&] { order.push_back(200); });
    eq.scheduleAt(10, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 100, 200}));
}

TEST(EventQueueChannel, ZeroDelayLocalFromAPostRunsBeforeTheTicksOtherPosts)
{
    // A zero-delay local lands after everything already run at its tick
    // and before the tick's pending posts, so a post's follow-up runs
    // ahead of the next channel — and a post scheduled at the running
    // tick still waits behind every local there.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAtChannel(10, 5, [&] {
        order.push_back(50);
        eq.scheduleAt(10, [&] {
            order.push_back(2);
            eq.scheduleAtChannel(10, 6, [&] { order.push_back(65); });
            eq.scheduleAt(10, [&] { order.push_back(3); });
        });
    });
    eq.scheduleAtChannel(10, 6, [&] { order.push_back(60); });
    eq.scheduleAtChannel(10, 7, [&] { order.push_back(70); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 50, 2, 3, 60, 65, 70}));
}


TEST(EventQueueChannel, OverflowMigrationKeepsChannelOrder)
{
    // Channel events beyond the calendar window park in the overflow
    // heap; once migrated they must still interleave by key with ring
    // entries scheduled later for the same tick.
    EventQueue eq;
    std::vector<int> order;
    Tick far = 5000; // beyond the 2048-tick bucket ring
    eq.scheduleAtChannel(far, 8, [&] { order.push_back(8); });
    eq.scheduleAtChannel(far, 2, [&] { order.push_back(2); });
    // Bring `far` into the window, then add a same-tick competitor.
    eq.scheduleAt(4000, [&] {
        eq.scheduleAtChannel(far, 5, [&] { order.push_back(5); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 5, 8}));
    EXPECT_EQ(eq.now(), far);
}

// ---- build in place, run in place -----------------------------------------

/** Counts its copies, moves and runs; @p Pad bytes push it to the heap. */
template <std::size_t Pad = 0>
struct MoveCounter
{
    struct Counts
    {
        int copies = 0;
        int moves = 0;
        int runs = 0;
    };

    Counts *c;
    std::array<char, Pad> pad{};

    explicit MoveCounter(Counts *counts) : c(counts) {}
    MoveCounter(const MoveCounter &o) : c(o.c) { ++c->copies; }
    MoveCounter(MoveCounter &&o) noexcept : c(o.c) { ++c->moves; }
    MoveCounter &operator=(const MoveCounter &) = delete;
    MoveCounter &operator=(MoveCounter &&) = delete;

    void operator()() { ++c->runs; }
};

template <std::size_t Pad>
void
expectOneMovePerEvent()
{
    using Counter = MoveCounter<Pad>;
    typename Counter::Counts in, at, chan, named, boxed;
    EventQueue eq;
    eq.scheduleIn(5, Counter(&in));
    eq.scheduleAt(6, Counter(&at));
    eq.scheduleAtChannel(7, 3, Counter(&chan));
    Counter lvalue(&named);
    eq.scheduleAt(8, lvalue);
    // A prebuilt Callback is moved into its slot: one more move of the
    // callable when it is stored inline, none (just its pointer) when it
    // lives on the heap.
    eq.scheduleAt(9, EventQueue::Callback(Counter(&boxed)));
    const int boxedMoves = Pad == 0 ? 2 : 1;

    // Scheduling built each callable exactly once, in its slot...
    for (auto *c : {&in, &at, &chan})
        EXPECT_EQ(c->moves, 1);
    EXPECT_EQ(named.copies, 1);
    EXPECT_EQ(named.moves, 0);
    EXPECT_EQ(boxed.moves, boxedMoves);

    // ...and execution ran it where it lay.
    eq.run();
    for (auto *c : {&in, &at, &chan}) {
        EXPECT_EQ(c->moves, 1);
        EXPECT_EQ(c->copies, 0);
        EXPECT_EQ(c->runs, 1);
    }
    EXPECT_EQ(named.copies, 1);
    EXPECT_EQ(named.moves, 0);
    EXPECT_EQ(named.runs, 1);
    EXPECT_EQ(boxed.moves, boxedMoves);
    EXPECT_EQ(boxed.runs, 1);
}

TEST(EventQueueInPlace, CallbackIsMovedOnceIntoItsSlotAndNeverAtExecution)
{
    expectOneMovePerEvent<0>();   // inline storage
    expectOneMovePerEvent<128>(); // oversized: heap storage
}

TEST(EventQueueInPlace, DirectDispatchPostBuildsTheCallbackInItsSlot)
{
    // A 1-shard scheduler's post() forwards the callable down to the
    // owner queue's slot: one move in total, none when it runs.
    ParallelScheduler sched(1, 2, /*window=*/10);
    MoveCounter<>::Counts c;
    sched.post(1, 20, chan::pair(0, 1, 2), MoveCounter<>(&c));
    EXPECT_EQ(c.moves, 1);
    sched.runUntil(tickNever);
    EXPECT_EQ(c.runs, 1);
    EXPECT_EQ(c.moves, 1);
    EXPECT_EQ(c.copies, 0);
}

TEST(EventQueueInPlace, RunningCallbackSurvivesArenaGrowth)
{
    // The running event fills more than two 1024-slot chunks and only
    // then reads its own captures. Slots never move, so they are intact
    // (under ASan, a relocated slot would be a heap-use-after-free).
    EventQueue eq;
    int ran = 0;
    std::array<std::uint64_t, 5> payload = {11, 22, 33, 44, 55};
    std::array<std::uint64_t, 5> seen{};
    eq.scheduleAt(1, [&eq, &ran, &seen, payload] {
        for (int k = 0; k < 3000; ++k)
            eq.scheduleIn(1 + k % 5, [&ran] { ++ran; });
        seen = payload;
    });
    eq.run();
    EXPECT_EQ(seen, payload);
    EXPECT_EQ(ran, 3000);
    EXPECT_GT(eq.poolSlots(), 2048u);
}

template <std::size_t Pad>
void
expectCaptureReleasedOnce()
{
    EventQueue eq;
    auto token = std::make_shared<int>(0);
    std::array<char, Pad> pad{};
    long during = 0;
    eq.scheduleAt(5, [token, pad, &during] {
        during = token.use_count();
        (void)pad;
    });
    EXPECT_EQ(token.use_count(), 2);
    eq.run();
    EXPECT_EQ(during, 2);            // alive while running
    EXPECT_EQ(token.use_count(), 1); // released once, after running
    EXPECT_EQ(eq.eventsExecuted(), 1u);
}

TEST(EventQueueInPlace, CapturesAreReleasedExactlyOnce)
{
    expectCaptureReleasedOnce<0>();   // inline storage
    expectCaptureReleasedOnce<256>(); // oversized: heap storage
}

// ---- lifetimes on failure paths --------------------------------------------

/**
 * Counts releases of a live capture; moved-from copies do not count, so
 * a callable released exactly once adds exactly one. @p Pad bytes push
 * the callable to heap storage.
 */
template <std::size_t Pad = 0>
struct ReleaseCounter
{
    int *released;
    std::array<char, Pad> pad{};

    explicit ReleaseCounter(int *r) : released(r) {}
    ReleaseCounter(ReleaseCounter &&o) noexcept
        : released(std::exchange(o.released, nullptr)), pad(o.pad)
    {
    }
    ReleaseCounter(const ReleaseCounter &) = delete;
    ReleaseCounter &operator=(const ReleaseCounter &) = delete;
    ReleaseCounter &operator=(ReleaseCounter &&) = delete;

    ~ReleaseCounter()
    {
        if (released)
            ++*released;
    }
};

template <std::size_t Pad>
void
expectThrowingCallbackIsRecycled()
{
    // Guard check failures throw out of callbacks.
    EventQueue eq;
    int released = 0;
    std::vector<int> order;
    auto thrower = [&released] {
        return [c = ReleaseCounter<Pad>(&released)] {
            throw std::runtime_error("check failed");
        };
    };
    // The thrower is tick 5's first local; the tick's other local and
    // its two posts (scheduled out of channel order) stay pending.
    eq.scheduleAtChannel(5, 2, [&] { order.push_back(3); });
    eq.scheduleAt(5, thrower());
    eq.scheduleAtChannel(5, 1, [&] { order.push_back(2); });
    eq.scheduleAt(5, [&] { order.push_back(1); });
    eq.scheduleAt(6, [&] { order.push_back(4); });
    EXPECT_THROW(eq.runUntil(tickNever), std::runtime_error);
    EXPECT_EQ(released, 1); // destroyed once, on the way out
    EXPECT_EQ(eq.size(), 4u);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_TRUE(order.empty());

    // The next run resumes in (tick, key, FIFO) order.
    eq.runUntil(tickNever);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));

    // Each throw recycles the thrower's slot, so the arena stays flat.
    std::size_t slots = eq.poolSlots();
    for (int i = 0; i < 1000; ++i) {
        eq.scheduleIn(1, thrower());
        eq.scheduleIn(1, [&] { order.push_back(5); });
        EXPECT_THROW(eq.runUntil(tickNever), std::runtime_error);
        eq.runUntil(tickNever);
    }
    EXPECT_EQ(released, 1001);
    EXPECT_EQ(eq.poolSlots(), slots);
    EXPECT_EQ(order.size(), 1004u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueLifetime, ThrowingCallbackLeavesRunUntilAndIsRecycled)
{
    expectThrowingCallbackIsRecycled<0>();   // inline storage
    expectThrowingCallbackIsRecycled<256>(); // oversized: heap storage
}

TEST(EventQueueLifetime, DestroyedQueueReleasesEveryPendingCapture)
{
    int released = 0;
    {
        EventQueue eq;
        // Executed events leave empty, recycled slots behind; those
        // must not be released a second time.
        eq.scheduleAt(1, [c = ReleaseCounter<>(&released)] {});
        eq.scheduleAt(1, [c = ReleaseCounter<256>(&released)] {});
        eq.run();
        EXPECT_EQ(released, 2);

        // Pending in the ring and in the overflow heap, stored inline
        // and on the heap, left behind by an aborted run (the watchdog's
        // abort path).
        eq.scheduleAt(10, [c = ReleaseCounter<>(&released)] {});
        eq.scheduleAtChannel(10, 3, [c = ReleaseCounter<256>(&released)] {});
        eq.scheduleAt(100000, [c = ReleaseCounter<>(&released)] {});
        eq.scheduleAtChannel(100000, 3,
                             [c = ReleaseCounter<256>(&released)] {});
        eq.scheduleAt(5, [&eq] { eq.requestAbort(); });
        eq.run();
        EXPECT_EQ(eq.now(), 5u);
        EXPECT_EQ(eq.size(), 4u);
        EXPECT_EQ(released, 2);
    }
    EXPECT_EQ(released, 6);
}

TEST(SmallFunction, EmplaceReplacesTheHeldCallable)
{
    auto token = std::make_shared<int>(0);
    SmallFunction f([token] {});
    EXPECT_EQ(token.use_count(), 2);

    int calls = 0;
    f.emplace([&calls] { ++calls; }); // destroys the old callable
    EXPECT_EQ(token.use_count(), 1);
    f();
    EXPECT_EQ(calls, 1);

    f.emplace(SmallFunction([token] {})); // an rvalue is move-assigned
    EXPECT_EQ(token.use_count(), 2);
    f.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_FALSE(f);
    f.reset(); // no-op when empty
}

/**
 * Randomized stress of the sorted tick lists: scheduleAt, channel posts
 * (few channel ids, so posts overtake and queue behind one another),
 * zero delays into the executing tick, far-future overflow events and
 * reserved positions, checked against an ordered (tick, class, chan,
 * seq) model (class 0 = local, 1 = channel post). A reservation takes
 * a seq like a local scheduled at that moment; the wake scheduled there
 * later runs where that local would have, and reached() answers whether
 * the last event run is at or past it. nextEventTick() must see the
 * model's front. @p cal_overflow_period arms the queue's cal-overflow
 * fault.
 */
void
mixedStressMatchesReferenceModel(std::uint64_t cal_overflow_period = 0)
{
    std::mt19937_64 rng(4242);
    EventQueue eq(cal_overflow_period);

    using Key = std::tuple<Tick, std::uint64_t, std::uint64_t,
                           std::uint64_t>; // tick, class, chan, seq
    std::map<Key, std::uint64_t> model;    // key -> token
    std::vector<std::uint64_t> executed;
    std::uint64_t nextToken = 0, seq = 1;
    Key last{0, 0, 0, 0}; // the last event run (none yet)
    struct Reservation
    {
        EventQueue::Position pos;
        Key key;
    };
    std::vector<Reservation> reserved; // not yet scheduled

    auto delay = [&]() -> Tick {
        unsigned r = unsigned(rng() % 100);
        if (r == 0)
            return 3000 + rng() % 5000; // beyond the calendar window
        if (r < 15)
            return 0; // into the executing tick
        return rng() % 40;
    };
    auto scheduleOne = [&] {
        Tick when = eq.now() + delay();
        std::uint64_t token = nextToken++;
        auto fn = [&executed, token] { executed.push_back(token); };
        Key key;
        if (rng() % 2) {
            std::uint64_t ch = rng() % 6;
            eq.scheduleAtChannel(when, ch, fn);
            key = Key{when, 1, ch, seq++};
        } else {
            eq.scheduleAt(when, fn);
            key = Key{when, 0, 0, seq++};
        }
        model.emplace(key, token);
    };
    auto expectFront = [&] {
        ASSERT_FALSE(model.empty());
        EXPECT_EQ(executed.back(), model.begin()->second);
        last = model.begin()->first;
        model.erase(model.begin());
    };
    auto reserveOne = [&] {
        Tick when = eq.now() + delay();
        reserved.push_back({eq.reserve(when), Key{when, 0, 0, seq++}});
    };
    // Check reached() on a random reservation; schedule its wake when it
    // is still ahead (or drop it when it is passed).
    auto useReservation = [&](bool schedule) {
        if (reserved.empty())
            return;
        std::size_t i = rng() % reserved.size();
        Reservation r = reserved[i];
        bool passed = last >= r.key;
        ASSERT_EQ(eq.reached(r.pos), passed);
        if (!schedule && !passed)
            return;
        reserved.erase(reserved.begin() + std::ptrdiff_t(i));
        if (passed)
            return;
        std::uint64_t token = nextToken++;
        eq.scheduleAt(r.pos,
                      [&executed, token] { executed.push_back(token); });
        model.emplace(r.key, token);
    };

    for (int round = 0; round < 20000; ++round) {
        unsigned action = unsigned(rng() % 20);
        if (action >= 17) {
            if (action == 17)
                reserveOne();
            else
                useReservation(/*schedule=*/action == 18);
        } else if (action < 11) {
            scheduleOne();
        } else if (action < 15) {
            for (int k = 0; k < 3 && !model.empty(); ++k) {
                std::size_t before = executed.size();
                ASSERT_TRUE(eq.step());
                ASSERT_EQ(executed.size(), before + 1);
                expectFront();
            }
        } else if (action < 16) {
            Tick limit = eq.now() + rng() % 20;
            std::size_t before = executed.size();
            eq.runUntil(limit);
            for (std::size_t k = before; k < executed.size(); ++k) {
                ASSERT_FALSE(model.empty());
                EXPECT_LE(std::get<0>(model.begin()->first), limit);
                EXPECT_EQ(executed[k], model.begin()->second);
                last = model.begin()->first;
                model.erase(model.begin());
            }
            if (!model.empty())
                EXPECT_GT(std::get<0>(model.begin()->first), limit);
        } else {
            EXPECT_EQ(eq.nextEventTick(),
                      model.empty() ? tickNever
                                    : std::get<0>(model.begin()->first));
        }
        ASSERT_EQ(eq.size(), model.size());
    }

    while (!model.empty()) {
        ASSERT_TRUE(eq.step());
        expectFront();
    }
    EXPECT_FALSE(eq.step());
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueChannel, RandomizedMixedStressMatchesReferenceModel)
{
    mixedStressMatchesReferenceModel();
}

TEST(EventQueueChannel, MixedStressHoldsWithCalendarOverflowDetours)
{
    // The cal-overflow fault sends every third event through the
    // overflow heap, zero delays into the running tick included. Each
    // detour must reach its tick list before any later event does, or
    // FIFO within a key breaks.
    mixedStressMatchesReferenceModel(/*cal_overflow_period=*/3);
}

} // namespace
} // namespace ltp
