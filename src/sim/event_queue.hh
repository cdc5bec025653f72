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
 *  - Every event lives in one pooled slot from scheduling to execution.
 *    Slots sit in fixed 1024-slot chunks behind stable pointers, so a
 *    slot never moves once handed out, however far the arena grows.
 *    The callback (a SmallFunction) is built once, directly in the
 *    slot, by the forwarding schedule calls, and runs where it lies:
 *    the steady-state schedule/execute cycle performs zero heap
 *    allocations and zero callback relocations.
 *
 *  - The slot is also the calendar entry. Events within `window` ticks
 *    of now are threaded through a per-tick sorted list (a bucket is a
 *    {head, tail} pair of slot indices; O(1) append, bitmap-accelerated
 *    scan to the next non-empty tick). The rare far-future event waits
 *    in a binary-heap overflow area and migrates into its tick's list
 *    as the window advances. Nearly every simulator delay (NI
 *    occupancy, wire flight, memory access, barrier release) is far
 *    below the window, so the common path never touches the heap.
 *
 *  - An event id encodes its slot index plus a generation tag (the
 *    global schedule sequence number, which doubles as the FIFO
 *    tie-breaker). cancel() marks the slot and drops its callback; the
 *    pop path frees a marked slot when it reaches it. A slot's tag is
 *    cleared when its event starts running and it is retagged only on
 *    reuse, so ids are single-use and a running event cannot be
 *    cancelled.
 *
 * Same-tick order
 * ---------------
 * Every event carries a one-word ordering key, and a tick's events
 * execute in ascending (key, schedule sequence) order:
 *
 *  - scheduleAt() events ("locals") take key 0, so a tick's locals run
 *    first, FIFO. A zero-delay local lands after everything already run
 *    at its tick and before that tick's pending channel posts.
 *
 *  - scheduleAtChannel() events ("channel posts") take key 1 + chan:
 *    they follow the tick's locals, by channel id, FIFO within a
 *    channel.
 *
 * The rule depends on nothing but the events themselves, so the
 * parallel engine (src/sim/par/) gets the same per-node order from any
 * queue it puts a node in and at any window width: a 1-shard
 * ParallelScheduler posts straight into the queue, and the staged
 * engine applies its mailbox lanes, unsorted, through
 * scheduleAtChannel().
 */

#ifndef LTP_SIM_EVENT_QUEUE_HH
#define LTP_SIM_EVENT_QUEUE_HH

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
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

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p f to run at absolute tick @p when.
     *
     * The callable is constructed once, in its event slot; pass an
     * rvalue to have it moved there (an EventQueue::Callback rvalue is
     * move-assigned).
     *
     * Ordering key 0: a tick's scheduleAt() events run before its
     * channel posts, FIFO among themselves.
     *
     * @pre when >= now(); scheduling in the past is a caller bug.
     * @return an id usable with cancel().
     */
    template <typename F>
    EventId
    scheduleAt(Tick when, F &&f)
    {
        return scheduleKeyed(when, 0, std::forward<F>(f));
    }

    /** Schedule @p f to run @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleIn(Tick delay, F &&f)
    {
        return scheduleAt(now_ + delay, std::forward<F>(f));
    }

    /**
     * Schedule @p f at tick @p when on logical FIFO channel @p chan.
     *
     * Ordering key 1 + @p chan: at one tick, channel events execute
     * after the scheduleAt() events, ordered by channel id and FIFO
     * within a channel — the parallel engine's canonical
     * (tick, channel) order.
     */
    template <typename F>
    EventId
    scheduleAtChannel(Tick when, std::uint64_t chan, F &&f)
    {
        return scheduleKeyed(when, 1 + chan, std::forward<F>(f));
    }

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

    /** Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /**
     * Ask the run loops (runUntil/step) to stop before the next event.
     * Safe to call from any thread (the guard watchdog's abort path);
     * the executing thread observes the flag within one event. Pending
     * events stay queued — the run simply stops making progress, and
     * the caller reports a structured abort instead of hanging.
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
     * `beatPeriod` events (and when runUntil() returns), so a monitor
     * thread can observe forward progress without a data race
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

    /** Far-future events migrated overflow-heap -> calendar ring. */
    std::uint64_t overflowMigrations() const { return overflowMigrations_; }

    /**
     * Tick of the earliest pending (non-cancelled) event, or tickNever
     * when the queue is drained. Used by the parallel engine to plan
     * conservative windows; frees cancelled slots it passes as a side
     * effect but never dequeues or executes anything.
     */
    Tick nextEventTick();

    /**
     * Size of the slot arena (diagnostics/tests). Grows to the high-water
     * mark of concurrently pending events, then stays flat: steady-state
     * scheduling recycles slots instead of allocating.
     */
    std::size_t poolSlots() const { return numSlots_; }

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

    /** Null slot index: the end of a tick list or of the free list. */
    static constexpr std::uint32_t nil = 0xffffffffu;

    /** Slots per arena chunk (1024). */
    static constexpr unsigned chunkShift = 10;
    static constexpr std::uint32_t chunkMask = (1u << chunkShift) - 1;

    /**
     * One pending event, which is also its own calendar entry. The
     * ordering key is 0 for a local and 1 + chan for a channel post; the
     * schedule sequence lives in the id's generation bits, making the
     * full same-tick order (key, sequence).
     */
    struct Slot
    {
        EventId id = 0; //!< 0 = free or running (generations start at 1)
        Tick when = 0;
        std::uint64_t key = 0;
        /** Next slot in this tick's list, or in the free list. */
        std::uint32_t next = nil;
        /** cancel()ed: callback dropped, awaiting the pop path's free. */
        bool cancelled = false;
        Callback cb;
    };

    using Chunk = std::array<Slot, std::size_t(1) << chunkShift>;

    /** Same-tick execution order: key, then schedule sequence. */
    static bool
    keyBefore(std::uint64_t ka, EventId ida, std::uint64_t kb, EventId idb)
    {
        if (ka != kb)
            return ka < kb;
        return ida < idb; // generation bits dominate: schedule order
    }

    /**
     * One calendar tick's events: a list of slots threaded through
     * Slot::next, sorted by ordering key. Only pending events (and
     * cancelled ones not yet freed) are linked; execution unlinks from
     * the head.
     */
    struct Bucket
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    struct OverflowEntry
    {
        Tick when;
        std::uint64_t key;
        EventId id;

        bool
        operator>(const OverflowEntry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return keyBefore(o.key, o.id, key, id);
        }
    };

    Slot &
    slot(std::uint32_t i)
    {
        return (*chunks_[i >> chunkShift])[i & chunkMask];
    }

    /**
     * The keyed implementation behind every schedule flavour: take a
     * slot, build the callable in it, then tag and link it.
     */
    template <typename F>
    EventId
    scheduleKeyed(Tick when, std::uint64_t key, F &&f)
    {
        assert(when >= now_ && "scheduling an event in the past");
        // Pull freshly-eligible overflow events in first; their keys were
        // assigned at schedule time, so they land at their sorted position
        // regardless, but migrating early keeps the ring scan cheap.
        migrate();
        std::uint32_t i = acquire();
        slot(i).cb.emplace(std::forward<F>(f));
        return enqueue(i, when, key);
    }

    /** Pop a slot off the free list, or grow the arena. */
    std::uint32_t
    acquire()
    {
        std::uint32_t i = freeHead_;
        if (i == nil)
            return grow();
        freeHead_ = slot(i).next;
        return i;
    }

    /** Materialize the next slot (a new chunk every 1024 slots). */
    std::uint32_t grow();

    /** Tag slot @p i (callback already built) and link it in. */
    EventId enqueue(std::uint32_t i, Tick when, std::uint64_t key);

    /** Link slot @p i into its tick's list (within the window). */
    void pushBucket(std::uint32_t i);

    /** Cold path of pushBucket: a key-overtaking (channel) insert. */
    void insertSorted(Bucket &b, std::uint32_t i);

    /** Move overflow events that entered the window into the ring. */
    void
    migrate()
    {
        if (!overflow_.empty() && overflow_.top().when - now_ < window)
            migrateSlow();
    }

    void migrateSlow();

    /**
     * The next live event's slot (nil when none), freeing the cancelled
     * slots in front of it. Leaves it queued: it is the head of the
     * first non-empty tick list, or — with the ring empty — the top of
     * the overflow heap.
     */
    std::uint32_t peekLive();

    /**
     * Locate and dequeue the next live event with when <= @p limit.
     * Leaves it (and now_) untouched when the next event is beyond the
     * limit. @return the slot index, or nil when nothing is runnable.
     */
    std::uint32_t popNextLive(Tick limit);

    /** Ring index of the first non-empty bucket at or after now_. */
    std::size_t firstBucket() const;

    /** Unlink the head of bucket @p idx's list. */
    void
    unlinkHead(std::size_t idx)
    {
        Bucket &b = buckets_[idx];
        b.head = slot(b.head).next;
        --bucketedEntries_;
        if (b.head == nil) {
            b.tail = nil;
            bitmap_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
        }
    }

    /**
     * Advance now_ to slot @p i's tick and run its callback in place,
     * then destroy the callback and recycle the slot.
     */
    void executeSlot(std::uint32_t i);

    /** Return slot @p i (callback already destroyed) to the free list. */
    void
    release(std::uint32_t i)
    {
        Slot &s = slot(i);
        s.id = 0;
        s.next = freeHead_;
        freeHead_ = i;
    }

    std::array<Bucket, window> buckets_;     //!< per-tick slot lists
    std::uint64_t bitmap_[windowWords] = {}; //!< non-empty-bucket bits
    /** Slots linked into the ring, cancelled ones included. */
    std::size_t bucketedEntries_ = 0;
    std::priority_queue<OverflowEntry, std::vector<OverflowEntry>,
                        std::greater<>>
        overflow_;

    /** The slot arena: fixed chunks, so slots never move. */
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::uint32_t numSlots_ = 0;   //!< slots materialized (high-water)
    std::uint32_t freeHead_ = nil; //!< LIFO free list through Slot::next
    Tick now_ = 0;
    std::uint64_t nextGen_ = 1;
    std::size_t liveEvents_ = 0;
    std::uint64_t executed_ = 0;

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
