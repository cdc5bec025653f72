/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events are arbitrary callables scheduled at an absolute tick. Events
 * scheduled for the same tick execute in a fully specified order (see
 * "Same-tick order" below), which makes every simulation run
 * bit-reproducible.
 *
 * Implementation (see src/sim/README.md for the full design notes):
 *
 *  - Callbacks live in a slab of pooled, recycled slots — a free-list
 *    arena — and are stored inline via SmallFunction, so the steady-state
 *    schedule/execute cycle performs zero heap allocations.
 *
 *  - An event id encodes its slot index plus a generation tag (the
 *    global schedule sequence number), so cancellation simply releases
 *    the slot: stale queue entries no longer match the slot's tag and
 *    are skipped on pop. The sequence number doubles as the
 *    FIFO tie-breaker.
 *
 *  - Time order is a calendar: events within `window` ticks of now go
 *    into a per-tick bucket ring (O(1) push, bitmap-accelerated scan to
 *    the next non-empty tick); the rare far-future event waits in a
 *    binary-heap overflow area and migrates into the ring as the window
 *    advances. Nearly every simulator delay (NI occupancy, wire flight,
 *    memory access, barrier release) is far below the window, so the
 *    common path never touches the heap.
 *
 * Same-tick order
 * ---------------
 * Every event carries an ordering key (phase, channel, sequence) and a
 * tick's events execute in ascending key order:
 *
 *  - scheduleAt() events ("locals") take the queue's current even phase
 *    and channel 0, so with no rounds in play (a bare queue: phase
 *    stays 0) same-tick order is pure FIFO.
 *
 *  - scheduleAtChannel() events ("channel posts") take the current odd
 *    phase (phase + 1) and the caller's channel id: at one tick they
 *    sort after the current round's locals, by channel id, FIFO within
 *    a channel. beginRound() advances the phase by 2, so posts of round
 *    r land between round r's locals and round r+1's locals.
 *
 * This is the canonical (deliveryTick, channel) tie-break of the
 * parallel engine (src/sim/par/): a 1-shard ParallelScheduler posts
 * straight into the queue through scheduleAtChannel() and the sorted
 * bucket reproduces, insertion-order-independently, exactly the order
 * the multi-shard engine realizes by sorting its mailbox lanes at a
 * window barrier.
 */

#ifndef LTP_SIM_EVENT_QUEUE_HH
#define LTP_SIM_EVENT_QUEUE_HH

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/small_function.hh"
#include "sim/types.hh"

namespace ltp
{

/**
 * Discrete-event scheduler.
 *
 * The queue owns the notion of "now" for a simulation. Clients schedule
 * callbacks at absolute ticks (or relative delays) and then drive the
 * simulation with run() / runUntil() / step().
 */
class EventQueue
{
  public:
    using Callback = SmallFunction;

    /**
     * Handle used to cancel a scheduled event.
     *
     * Encodes (generation << slotBits) | slot. Generation tags make ids
     * single-use: once an event runs or is cancelled its slot is
     * recycled under a new generation, so a stale id can never cancel
     * the slot's next occupant.
     */
    using EventId = std::uint64_t;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     *
     * Ordering key: (current even phase, channel 0, schedule sequence) —
     * FIFO among same-tick scheduleAt() events of the same round.
     *
     * @pre when >= now(); scheduling in the past is a caller bug.
     * @return an id usable with cancel().
     */
    EventId
    scheduleAt(Tick when, Callback cb)
    {
        return scheduleKeyed(when, phase_ << chanBits, std::move(cb));
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId scheduleIn(Tick delay, Callback cb)
    {
        return scheduleAt(now_ + delay, std::move(cb));
    }

    /**
     * Schedule @p cb at tick @p when on logical FIFO channel @p chan.
     *
     * Ordering key: (current odd phase, chan, schedule sequence). At one
     * tick, channel events of a round execute after that round's
     * scheduleAt() events, ordered by channel id and FIFO within a
     * channel — the parallel engine's canonical (tick, channel) merge
     * order, realized here directly without mailbox staging.
     */
    EventId
    scheduleAtChannel(Tick when, std::uint64_t chan, Callback cb)
    {
        assert(chan < (std::uint64_t(1) << chanBits) &&
               "channel ids must fit 32 bits (see chan::spaceShift)");
        return scheduleKeyed(when, ((phase_ + 1) << chanBits) | chan,
                             std::move(cb));
    }

    /**
     * Open the next canonical round: subsequent scheduleAt() events sort
     * after every channel event of the previous round. Never needed by
     * a bare queue (the phase just stays 0). The packed key
     * gives phases 32 bits: 2^31 rounds, which at the minimum window
     * of one tick per round outlives any realistic run by orders of
     * magnitude.
     */
    void beginRound() { phase_ += 2; }

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event was pending and is now cancelled; false if
     *         it already ran, was already cancelled, or never existed.
     */
    bool cancel(EventId id);

    /** True when no runnable events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return liveEvents_; }

    /**
     * Execute the single next event (advancing time to it).
     *
     * @return false if the queue was empty.
     */
    bool step();

    /** Run until the queue drains. @return the final tick reached. */
    Tick run() { return runUntil(tickNever); }

    /**
     * Run until the queue drains or simulated time would exceed @p limit.
     *
     * Events at tick == limit still execute.
     * @return the final tick reached.
     */
    Tick runUntil(Tick limit);

    /**
     * Run like runUntil(@p limit), but drive the canonical round clock
     * inline: whenever the next event lies beyond the current round's
     * window, open a new round (beginRound()) spanning
     * [tick, tick + @p window) — clamped to @p limit — before executing
     * it. This replays exactly the window sequence the staged parallel
     * engine would plan at its barriers (the window start is the global
     * minimum pending tick, which for one shard is simply the next
     * event), at the cost of one compare per event instead of a
     * separate peek-plan-execute pass per round. The 1-shard fast path
     * is this call; windowEnd() exposes the current round's end for the
     * post() lookahead assertion.
     *
     * @p on_round, when set, runs at each round start with the window's
     * first tick — before that event executes, with every earlier event
     * done. It is the metrics sampler's quiescent observation point and
     * must not schedule events.
     */
    Tick runWindowed(Tick limit, Tick window,
                     const std::function<void(Tick)> &on_round = {});

    /** End of the current canonical round (0 before the first one). */
    Tick windowEnd() const { return windowEnd_; }

    /** Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /**
     * Ask the run loops (runUntil/runWindowed/step) to stop before the
     * next event. Safe to call from any thread (the guard watchdog's
     * abort path); the executing thread observes the flag within one
     * event. Pending events stay queued — the run simply stops making
     * progress, and the caller reports a structured abort instead of
     * hanging.
     */
    void
    requestAbort()
    {
        abort_.store(true, std::memory_order_relaxed);
    }

    bool
    abortRequested() const
    {
        return abort_.load(std::memory_order_relaxed);
    }

    /** Re-arm the loops after an aborted run (tests). */
    void clearAbort() { abort_.store(false, std::memory_order_relaxed); }

    /**
     * Progress mirrors for the guard watchdog: the executing thread
     * publishes now()/eventsExecuted() into atomics every
     * `beatPeriod` events (and at every runWindowed round boundary), so
     * a monitor thread can observe forward progress without a data race
     * on the hot members. Monitoring only — values may trail the true
     * counters by up to beatPeriod events.
     */
    Tick
    tickApprox() const
    {
        return tickMirror_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    executedApprox() const
    {
        return executedMirror_.load(std::memory_order_relaxed);
    }

    /** Windows opened by runWindowed() (the 1-shard round count). */
    std::uint64_t windowedRounds() const { return windowedRounds_; }
    /** Sum of runWindowed() window widths in ticks. */
    std::uint64_t windowedTicksSum() const { return windowedTicksSum_; }
    /** Far-future events migrated overflow-heap -> calendar ring. */
    std::uint64_t overflowMigrations() const { return overflowMigrations_; }

    /**
     * Tick of the earliest pending (non-cancelled) event, or tickNever
     * when the queue is drained. Used by the parallel engine to plan
     * conservative windows; prunes tombstones as a side effect but
     * never dequeues or executes anything.
     */
    Tick nextEventTick();

    /**
     * Size of the slot arena (diagnostics/tests). Grows to the high-water
     * mark of concurrently pending events, then stays flat: steady-state
     * scheduling recycles slots instead of allocating.
     */
    std::size_t poolSlots() const { return slots_.size(); }

  private:
    /** Low bits of an EventId select the slot; the rest are the tag. */
    static constexpr unsigned slotBits = 24;
    static constexpr std::uint64_t slotMask = (std::uint64_t(1)
                                               << slotBits) -
                                              1;

    /** Calendar span: events within [now, now + window) are bucketed. */
    static constexpr std::size_t window = 2048;
    static constexpr std::size_t windowMask = window - 1;
    static constexpr std::size_t windowWords = window / 64;

    /** One pooled event: its current id tag and the inline callback. */
    struct Slot
    {
        EventId id = 0; //!< 0 = free (generations start at 1)
        Tick when = 0;
        Callback cb;
    };

    /**
     * One queued reference to a slot, carrying the ordering key packed
     * as (phase << 32) | chan — phases and channel ids both fit 32
     * bits (see scheduleAtChannel) — so the entry stays 16 bytes and a
     * bucket comparison is two machine words. The schedule sequence
     * lives in the id's generation bits, making the full order
     * (phase, chan, sequence).
     */
    struct Entry
    {
        EventId id;
        std::uint64_t key;
    };

    /** Bits of the packed key available for the channel id. */
    static constexpr unsigned chanBits = 32;

    static bool
    entryBefore(const Entry &a, const Entry &b)
    {
        if (a.key != b.key)
            return a.key < b.key;
        return a.id < b.id; // generation bits dominate: schedule order
    }

    /**
     * One calendar tick's events, kept sorted by ordering key. `head`
     * marks the consumed prefix (entries are popped front-to-back
     * within a tick); insertions never land before `head` — see
     * pushBucket().
     */
    struct Bucket
    {
        std::vector<Entry> entries;
        std::size_t head = 0;
    };

    struct OverflowEntry
    {
        Tick when;
        Entry entry; //!< stable key copy: slots may be recycled under it

        bool
        operator>(const OverflowEntry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return entryBefore(o.entry, entry);
        }
    };

    /** The keyed implementation behind both schedule flavours. */
    EventId scheduleKeyed(Tick when, std::uint64_t key, Callback cb);

    /** Sorted-insert into the ring bucket for @p when (within window). */
    void pushBucket(Tick when, Entry e);

    /** Cold path of pushBucket: a key-overtaking (channel) insert. */
    void insertSorted(Bucket &b, Entry e);

    /** Move overflow events that entered the window into the ring. */
    void migrate();

    /**
     * Locate and dequeue the next live event with when <= @p limit.
     * Leaves it (and now_) untouched when the next event is beyond the
     * limit. @return the slot index, or -1 when nothing is runnable.
     */
    std::int64_t popNextLive(Tick limit);

    /** Ring index of the first non-empty bucket at or after now_. */
    std::size_t firstBucket() const;

    /** Advance now_ to @p slot's tick, recycle it, run its callback. */
    void executeSlot(std::uint32_t slot);

    void
    clearBucket(std::size_t idx)
    {
        buckets_[idx].entries.clear();
        buckets_[idx].head = 0;
        bitmap_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }

    /** Release @p slot back to the free list. */
    void
    release(std::uint32_t slot)
    {
        slots_[slot].id = 0;
        freeList_.push_back(slot);
    }

    std::vector<Bucket> buckets_;           //!< window per-tick buckets
    std::uint64_t bitmap_[windowWords] = {}; //!< non-empty-bucket bits
    std::size_t bucketedEntries_ = 0;       //!< entries in the ring (incl. stale)
    std::priority_queue<OverflowEntry, std::vector<OverflowEntry>,
                        std::greater<>>
        overflow_;

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeList_;
    Tick now_ = 0;
    Tick windowEnd_ = 0; //!< current canonical round's end (runWindowed)
    bool windowOpen_ = false; //!< a runWindowed round has ever begun
    std::uint64_t nextGen_ = 1;
    std::uint64_t phase_ = 0; //!< even; +1 = the channel-post phase
    std::size_t liveEvents_ = 0;
    std::uint64_t executed_ = 0;

    std::uint64_t windowedRounds_ = 0;
    std::uint64_t windowedTicksSum_ = 0;
    std::uint64_t overflowMigrations_ = 0;

    /** Events between progress-mirror publishes (power of two). */
    static constexpr std::uint64_t beatPeriod = 4096;

    void
    publishProgress()
    {
        tickMirror_.store(now_, std::memory_order_relaxed);
        executedMirror_.store(executed_, std::memory_order_relaxed);
    }

    std::atomic<bool> abort_{false};
    std::atomic<Tick> tickMirror_{0};
    std::atomic<std::uint64_t> executedMirror_{0};
};

} // namespace ltp

#endif // LTP_SIM_EVENT_QUEUE_HH
