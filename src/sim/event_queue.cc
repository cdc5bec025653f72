#include "sim/event_queue.hh"

#include <cassert>

#include "sim/guard/fault.hh"

namespace ltp
{

std::uint32_t
EventQueue::grow()
{
    assert(numSlots_ < slotMask && "event slot arena exhausted");
    if ((numSlots_ & chunkMask) == 0)
        chunks_.push_back(std::make_unique<Chunk>());
    return numSlots_++;
}

EventQueue::EventId
EventQueue::enqueue(std::uint32_t i, Tick when, std::uint64_t key)
{
    Slot &s = slot(i);
    EventId id = (nextGen_++ << slotBits) | i;
    s.id = id;
    s.when = when;
    s.key = key;
    s.cancelled = false;

    bool force_overflow =
        guard::Faults::on(guard::FaultKind::CalendarOverflow) &&
        guard::Faults::instance().calendarOverflowHit(nextGen_);
    if (when - now_ < window && !force_overflow) {
        pushBucket(i);
    } else {
        // Far-future event — or the cal-overflow fault pretending it
        // is one. Either way the event waits in the heap and migrate()
        // links it into its tick's list before it can fire, so the
        // forced detour is invisible to results.
        overflow_.push(OverflowEntry{when, key, id});
    }
    ++liveEvents_;
    return id;
}

void
EventQueue::pushBucket(std::uint32_t i)
{
    Slot &s = slot(i);
    assert(s.when - now_ < window);
    std::size_t idx = std::size_t(s.when) & windowMask;
    Bucket &b = buckets_[idx];
    s.next = nil;
    if (b.head == nil) {
        b.head = b.tail = i;
        bitmap_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    } else {
        Slot &last = slot(b.tail);
        if (!keyBefore(s.key, s.id, last.key, last.id)) {
            // Hot path: keys are nondecreasing for plain scheduleAt()
            // traffic (key 0, sequence monotonic), so this is a pure
            // append.
            last.next = i;
            b.tail = i;
        } else {
            insertSorted(b, i);
        }
    }
    ++bucketedEntries_;
}

// Out of line on purpose: only an event overtaking same-tick events of
// a later key (a channel post passing a larger channel id, a local
// passing the tick's pending posts) or a migrated overflow event lands
// here, and keeping the list walk out of pushBucket() keeps the append
// path's code footprint minimal.
__attribute__((noinline)) void
EventQueue::insertSorted(Bucket &b, std::uint32_t i)
{
    // The list holds only events still pending at this tick (executed
    // ones were unlinked from the head), and the new event sorts before
    // the tail, so the walk stops inside the list. Tick lists are short.
    Slot &s = slot(i);
    std::uint32_t prev = nil;
    std::uint32_t cur = b.head;
    for (;;) {
        Slot &c = slot(cur);
        if (keyBefore(s.key, s.id, c.key, c.id))
            break;
        prev = cur;
        cur = c.next;
    }
    s.next = cur;
    if (prev == nil)
        b.head = i;
    else
        slot(prev).next = i;
}

void
EventQueue::migrateSlow()
{
    while (!overflow_.empty() && overflow_.top().when - now_ < window) {
        std::uint32_t i = std::uint32_t(overflow_.top().id & slotMask);
        overflow_.pop();
        if (slot(i).cancelled) {
            release(i); // cancelled while parked in the overflow heap
            continue;
        }
        pushBucket(i);
        ++overflowMigrations_;
    }
}

bool
EventQueue::cancel(EventId id)
{
    if (id == 0)
        return false; // the null handle; free slots carry id 0
    std::uint32_t i = std::uint32_t(id & slotMask);
    if (i >= numSlots_)
        return false; // never existed
    Slot &s = slot(i);
    if (s.id != id || s.cancelled)
        return false; // already ran, running, or already cancelled
    // The slot stays linked (its key keeps the tick list sorted) until
    // the pop path reaches and frees it; only the callback goes now.
    s.cancelled = true;
    s.cb.reset();
    --liveEvents_;
    return true;
}

std::size_t
EventQueue::firstBucket() const
{
    // Ring-order scan from now_: every bucketed event's tick lies in
    // [now_, now_ + window), so the first set bit at or after now_'s
    // ring position (wrapping) is the earliest pending tick.
    std::size_t start = std::size_t(now_) & windowMask;
    std::size_t w = start >> 6;
    std::uint64_t first = bitmap_[w] & (~std::uint64_t(0) << (start & 63));
    if (first)
        return (w << 6) + std::size_t(__builtin_ctzll(first));
    for (std::size_t i = 1; i <= windowWords; ++i) {
        std::size_t ww = (w + i) & (windowWords - 1);
        if (bitmap_[ww])
            return (ww << 6) + std::size_t(__builtin_ctzll(bitmap_[ww]));
    }
    assert(false && "firstBucket called with an empty ring");
    return 0;
}

std::uint32_t
EventQueue::peekLive()
{
    while (liveEvents_ > 0) {
        migrate();

        if (bucketedEntries_ > 0) {
            std::size_t idx = firstBucket();
            std::uint32_t i = buckets_[idx].head;
            if (!slot(i).cancelled)
                return i;
            unlinkHead(idx);
            release(i);
            continue;
        }

        // Ring empty: the next event is a far-future one in the overflow
        // heap (migrate() above guarantees overflow events are beyond
        // the current window, hence later than anything bucketed).
        assert(!overflow_.empty() &&
               "live events but empty ring and overflow");
        std::uint32_t i = std::uint32_t(overflow_.top().id & slotMask);
        if (!slot(i).cancelled)
            return i;
        overflow_.pop();
        release(i);
    }
    return nil;
}

std::uint32_t
EventQueue::popNextLive(Tick limit)
{
    std::uint32_t i = peekLive();
    if (i == nil)
        return nil;
    Tick when = slot(i).when;
    if (when > limit)
        return nil; // leave it pending for a later run
    if (bucketedEntries_ > 0)
        unlinkHead(std::size_t(when) & windowMask);
    else
        overflow_.pop();
    return i;
}

Tick
EventQueue::nextEventTick()
{
    std::uint32_t i = peekLive();
    return i == nil ? tickNever : slot(i).when;
}

void
EventQueue::executeSlot(std::uint32_t i)
{
    Slot &s = slot(i);
    assert(s.when >= now_);
    now_ = s.when;
    // Untag first: the event can no longer be cancelled, not even by
    // itself. The slot is neither linked nor free while the callback
    // runs in place, so whatever it schedules lands in other slots, and
    // arena growth never moves this one (chunks are stable).
    s.id = 0;
    --liveEvents_;
    ++executed_;
    // Destroy and recycle even if the callback throws.
    struct Recycle
    {
        EventQueue &q;
        std::uint32_t i;
        ~Recycle()
        {
            q.slot(i).cb.reset();
            q.release(i);
        }
    } recycle{*this, i};
    s.cb();
}

bool
EventQueue::step()
{
    std::uint32_t i = popNextLive(tickNever);
    if (i == nil)
        return false;
    executeSlot(i);
    return true;
}

Tick
EventQueue::runUntil(Tick limit)
{
    std::uint32_t i;
    while (!abort_.load(std::memory_order_relaxed) &&
           (i = popNextLive(limit)) != nil) {
        executeSlot(i);
        if ((executed_ & (beatPeriod - 1)) == 0)
            publishProgress();
    }
    publishProgress();
    return now_;
}

} // namespace ltp
