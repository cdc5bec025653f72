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
 *    of now are threaded through a per-tick sorted circular list (the
 *    ring holds one pointer per tick, to its tail, whose link is the
 *    head; O(1) append, bitmap-accelerated scan to the next non-empty
 *    tick). The rare far-future event waits in a binary-heap overflow
 *    area and migrates into its tick's list as the window advances.
 *    Nearly every simulator delay (NI occupancy, wire flight, memory
 *    access, barrier release) is far below the window, so the common
 *    path never touches the heap.
 *
 *  - Popping is one pass: find the first non-empty tick, unlink its
 *    head, run it in place. Events cannot be cancelled, so every linked
 *    slot is a live event.
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
 * Each slot keeps its schedule sequence in the word its callback's
 * alignment leaves spare, so tick lists are sorted by (key, sequence).
 * A plain schedule still appends (it is the newest of all), and an
 * overflow event reaches its tick's list before any later event can,
 * because migrate() runs first in every schedule and pop.
 *
 * Reserved positions
 * ------------------
 * reserve(when) takes a schedule sequence without scheduling anything:
 * the returned Position is the place a local scheduled at that moment
 * for tick `when` would take. reached(pos) says whether the running
 * event is at or past that place, and scheduleAt(pos, f) links `f`
 * there, among the tick's locals by sequence, however much was
 * scheduled since. A component that is busy until some moment (the
 * directory engine) keeps a Position instead of a timer event, and
 * schedules a wake there only when work waits. The answers are the
 * same as with the timer, because a tick's locals run in sequence
 * order.
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
#include <tuple>
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
     * @param cal_overflow_period the cal-overflow fault (guard/fault.hh):
     *        every period-th schedule detours through the overflow heap.
     *        0 = off.
     */
    explicit EventQueue(std::uint64_t cal_overflow_period = 0)
        : calOverflowPeriod_(cal_overflow_period)
    {
    }
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
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&f)
    {
        scheduleKeyed(when, 0, std::forward<F>(f));
    }

    /**
     * A reserved place in the event order (see "Reserved positions"):
     * tick @p when, among that tick's locals at schedule sequence
     * @p seq.
     */
    struct Position
    {
        Tick when = 0;
        std::uint64_t seq = 0;
    };

    /**
     * Reserve the place a local scheduled now for tick @p when would
     * take. Nothing is scheduled; the position can be used later by
     * reached() and scheduleAt(Position, f).
     * @pre when >= now().
     */
    Position
    reserve(Tick when)
    {
        assert(when >= now_ && "reserving a place in the past");
        return Position{when, nextSeq_++};
    }

    /**
     * Whether the running event (the last one run, between events) is
     * at or past @p pos: at a later tick, or at the same tick and
     * either a channel post or a local whose sequence is >= pos.seq.
     * A default Position is reached from the start.
     */
    bool
    reached(Position pos) const
    {
        return now_ > pos.when || (now_ == pos.when && runSeq_ >= pos.seq);
    }

    /**
     * Schedule @p f at reserved position @p pos: after the tick's locals
     * with a smaller sequence, before everything else there. It never
     * takes the cal-overflow fault's detour.
     * @pre !reached(pos).
     */
    template <typename F>
    void
    scheduleAt(Position pos, F &&f)
    {
        assert(!reached(pos) && "scheduling at a passed position");
        migrate(); // same-tick detours must be linked first
        Slot *s = takeSlot();
        s->cb.emplace(std::forward<F>(f));
        s->when = pos.when;
        s->key = 0;
        s->seq = pos.seq;
        linkReserved(s);
        ++liveEvents_;
    }

    /** Schedule @p f to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&f)
    {
        scheduleAt(now_ + delay, std::forward<F>(f));
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
    void
    scheduleAtChannel(Tick when, std::uint64_t chan, F &&f)
    {
        scheduleKeyed(when, 1 + chan, std::forward<F>(f));
    }

    /** True when no events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of pending events. */
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
     * Tick of the earliest pending event, or tickNever when the queue
     * is drained. Used by the parallel engine to plan conservative
     * windows; never dequeues or executes anything.
     */
    Tick nextEventTick();

    /**
     * Size of the slot arena (diagnostics/tests). Grows to the high-water
     * mark of concurrently pending events, then stays flat: steady-state
     * scheduling recycles slots instead of allocating.
     */
    std::size_t poolSlots() const { return numSlots_; }

  private:
    /** Calendar span: events within [now, now + window) are bucketed. */
    static constexpr std::size_t window = 2048;
    static constexpr std::size_t windowMask = window - 1;
    static constexpr std::size_t windowWords = window / 64;

    /** Slots per arena chunk. */
    static constexpr std::size_t chunkSize = 1024;
    static constexpr std::size_t chunkMask = chunkSize - 1;

    /**
     * One pending event, which is also its own calendar entry. The
     * ordering key is 0 for a local and 1 + chan for a channel post;
     * the tie-break is the schedule sequence.
     */
    struct Slot
    {
        Tick when = 0;
        std::uint64_t key = 0;
        /**
         * Next slot in this tick's circular list (the tail's is the
         * head), or in the free list.
         */
        Slot *next = nullptr;
        /** Schedule sequence, in the word the callback's alignment
         *  leaves spare (so a slot stays 112 bytes on LP64). */
        std::uint64_t seq = 0;
        Callback cb;
    };

    using Chunk = std::array<Slot, chunkSize>;

    /** A far-future event, ordered by (when, key, schedule sequence). */
    struct OverflowEntry
    {
        Tick when;
        std::uint64_t key;
        std::uint64_t seq;
        Slot *slot;

        bool
        operator>(const OverflowEntry &o) const
        {
            return std::tie(when, key, seq) > std::tie(o.when, o.key, o.seq);
        }
    };

    /**
     * The keyed implementation behind every schedule flavour: take a
     * slot, build the callable in it, then link it.
     */
    template <typename F>
    void
    scheduleKeyed(Tick when, std::uint64_t key, F &&f)
    {
        assert(when >= now_ && "scheduling an event in the past");
        // Overflow events that entered the window must reach their tick
        // lists before anything newer can (see "Same-tick order").
        migrate();
        Slot *s = takeSlot();
        s->cb.emplace(std::forward<F>(f));
        enqueue(s, when, key);
    }

    /** Pop a free slot, or materialize one. */
    Slot *
    takeSlot()
    {
        Slot *s = freeHead_;
        if (s)
            freeHead_ = s->next;
        else
            s = grow();
        return s;
    }

    /** Materialize the next slot (a new chunk every 1024 slots). */
    Slot *grow();

    /** Stamp slot @p s (callback already built) and link it in. */
    void enqueue(Slot *s, Tick when, std::uint64_t key);

    /** Link the newest slot @p s into its tick's list (in the window). */
    void pushBucket(Slot *s);

    /** Link reserved slot @p s (stamped, older sequence) by sequence. */
    void linkReserved(Slot *s);

    /**
     * Cold path of pushBucket and linkReserved: insert @p s by (key,
     * sequence) into the list whose tail @p tail comes after it.
     */
    static void insertSorted(Slot *tail, Slot *s);

    /** Move overflow events that entered the window into the ring. */
    void
    migrate()
    {
        if (!overflow_.empty() && overflow_.top().when - now_ < window)
            migrateSlow();
    }

    void migrateSlow();

    /** firstBucket()'s answer when the ring is empty. */
    static constexpr std::size_t noBucket = window;

    /** Ring index of the first non-empty tick at or after now_. */
    std::size_t firstBucket() const;

    /**
     * Dequeue the next event if its tick is <= @p limit: the head of
     * the first non-empty tick list or, with the ring empty, the top of
     * the overflow heap. @return its slot, or null (nothing dequeued)
     * when the queue is empty or the next event lies beyond the limit.
     */
    Slot *popNext(Tick limit);

    /**
     * Advance now_ to slot @p s's tick, record its place for reached(),
     * and run its callback in place, then destroy the callback and
     * recycle the slot.
     */
    void execute(Slot *s);

    /**
     * The calendar ring: each tick's events form a circular list through
     * Slot::next, sorted by ordering key, FIFO within a key. The ring
     * holds the tail (null for an empty tick), whose next is the head,
     * so one pointer serves the O(1) append and the pop from the head.
     */
    std::array<Slot *, window> tails_{};
    std::uint64_t bitmap_[windowWords] = {}; //!< non-empty-tick bits
    std::priority_queue<OverflowEntry, std::vector<OverflowEntry>,
                        std::greater<>>
        overflow_;

    /** The slot arena: fixed chunks, so slots never move. */
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::size_t numSlots_ = 0; //!< slots materialized (high-water)
    Slot *freeHead_ = nullptr; //!< LIFO free list through Slot::next
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1; //!< next schedule sequence
    /** The running event's sequence for reached(); all ones for a
     *  channel post, which follows every local of its tick. */
    std::uint64_t runSeq_ = 0;
    std::size_t liveEvents_ = 0;
    std::uint64_t executed_ = 0;

    std::uint64_t overflowMigrations_ = 0;
    const std::uint64_t calOverflowPeriod_;

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
