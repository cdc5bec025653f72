#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>

#include "obs/trace.hh"
#include "sim/guard/fault.hh"

namespace ltp
{

EventQueue::EventQueue() : buckets_(window) {}

void
EventQueue::pushBucket(Tick when, Entry e)
{
    assert(when - now_ < window);
    std::size_t idx = std::size_t(when) & windowMask;
    Bucket &b = buckets_[idx];
    if (b.entries.empty() || !entryBefore(e, b.entries.back())) {
        // Hot path: keys are nondecreasing for plain scheduleAt()
        // traffic (phase fixed, sequence monotonic), so this is a pure
        // append exactly like the historical FIFO bucket.
        b.entries.push_back(e);
    } else {
        insertSorted(b, e);
    }
    bitmap_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    ++bucketedEntries_;
}

// Out of line on purpose: only a channel post overtaking same-tick
// entries of a later key (a larger channel id, or the round's locals
// scheduled after it) lands here, and keeping the binary search out of
// pushBucket() keeps the append path's code footprint minimal.
__attribute__((noinline)) void
EventQueue::insertSorted(Bucket &b, Entry e)
{
    // Never insert before `head`: the prefix holds only consumed
    // tombstones (live entries with a larger key cannot have run —
    // execution is in key order and posts never target a tick that is
    // already executing). Buckets are small; binary search finds the
    // spot.
    auto pos = std::upper_bound(
        b.entries.begin() + std::ptrdiff_t(b.head), b.entries.end(), e,
        [](const Entry &a, const Entry &x) { return entryBefore(a, x); });
    b.entries.insert(pos, e);
}

void
EventQueue::migrate()
{
    while (!overflow_.empty() && overflow_.top().when - now_ < window) {
        OverflowEntry e = overflow_.top();
        overflow_.pop();
        std::uint32_t slot = std::uint32_t(e.entry.id & slotMask);
        if (slots_[slot].id != e.entry.id)
            continue; // cancelled while parked in the overflow heap
        pushBucket(e.when, e.entry);
        ++overflowMigrations_;
    }
}

EventQueue::EventId
EventQueue::scheduleKeyed(Tick when, std::uint64_t key, Callback cb)
{
    assert(when >= now_ && "scheduling an event in the past");

    // Pull freshly-eligible overflow events in first; their keys were
    // assigned at schedule time, so they land at their sorted position
    // regardless, but migrating early keeps the ring scan cheap.
    migrate();

    std::uint32_t slot;
    if (!freeList_.empty()) {
        slot = freeList_.back();
        freeList_.pop_back();
    } else {
        assert(slots_.size() < slotMask && "event slot arena exhausted");
        slot = std::uint32_t(slots_.size());
        slots_.emplace_back();
    }

    EventId id = (nextGen_++ << slotBits) | slot;
    slots_[slot].id = id;
    slots_[slot].when = when;
    slots_[slot].cb = std::move(cb);

    Entry e{id, key};
    bool force_overflow =
        guard::Faults::on(guard::FaultKind::CalendarOverflow) &&
        guard::Faults::instance().calendarOverflowHit(nextGen_);
    if (when - now_ < window && !force_overflow) {
        pushBucket(when, e);
    } else {
        // Far-future event — or the cal-overflow fault pretending it
        // is one. Either way the entry waits in the heap and migrate()
        // moves it into the ring before it can fire, so the forced
        // detour is invisible to results.
        overflow_.push(OverflowEntry{when, e});
    }
    ++liveEvents_;
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    if (id == 0)
        return false; // the null handle; free slots carry id 0
    std::uint32_t slot = std::uint32_t(id & slotMask);
    if (slot >= slots_.size() || slots_[slot].id != id)
        return false; // already ran, already cancelled, or never existed
    slots_[slot].cb.reset();
    release(slot);
    --liveEvents_;
    // The ring/overflow entry stays behind as a tombstone; its tag no
    // longer matches the slot, so the pop path skips it.
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

std::int64_t
EventQueue::popNextLive(Tick limit)
{
    while (liveEvents_ > 0) {
        migrate();

        if (bucketedEntries_ > 0) {
            std::size_t idx = firstBucket();
            Bucket &b = buckets_[idx];
            while (b.head < b.entries.size()) {
                EventId id = b.entries[b.head].id;
                std::uint32_t slot = std::uint32_t(id & slotMask);
                if (slots_[slot].id != id) {
                    ++b.head; // tombstone from a cancelled event
                    --bucketedEntries_;
                    continue;
                }
                if (slots_[slot].when > limit)
                    return -1; // leave it pending for a later run
                ++b.head;
                --bucketedEntries_;
                if (b.head == b.entries.size())
                    clearBucket(idx);
                return std::int64_t(slot);
            }
            clearBucket(idx); // all tombstones: rescan
            continue;
        }

        // Ring empty: the next event is a far-future one in the overflow
        // heap (migrate() above guarantees overflow events are beyond
        // the current window, hence later than anything bucketed).
        while (!overflow_.empty()) {
            OverflowEntry e = overflow_.top();
            std::uint32_t slot = std::uint32_t(e.entry.id & slotMask);
            if (slots_[slot].id != e.entry.id) {
                overflow_.pop(); // tombstone
                continue;
            }
            if (e.when > limit)
                return -1;
            overflow_.pop();
            return std::int64_t(slot);
        }
        assert(false && "live events but empty ring and overflow");
        break;
    }
    return -1;
}

Tick
EventQueue::nextEventTick()
{
    while (liveEvents_ > 0) {
        migrate();

        if (bucketedEntries_ > 0) {
            std::size_t idx = firstBucket();
            Bucket &b = buckets_[idx];
            while (b.head < b.entries.size()) {
                EventId id = b.entries[b.head].id;
                std::uint32_t slot = std::uint32_t(id & slotMask);
                if (slots_[slot].id != id) {
                    ++b.head; // tombstone from a cancelled event
                    --bucketedEntries_;
                    continue;
                }
                return slots_[slot].when;
            }
            clearBucket(idx); // all tombstones: rescan
            continue;
        }

        while (!overflow_.empty()) {
            OverflowEntry e = overflow_.top();
            std::uint32_t slot = std::uint32_t(e.entry.id & slotMask);
            if (slots_[slot].id != e.entry.id) {
                overflow_.pop(); // tombstone
                continue;
            }
            return e.when;
        }
        assert(false && "live events but empty ring and overflow");
        break;
    }
    return tickNever;
}

void
EventQueue::executeSlot(std::uint32_t slot)
{
    assert(slots_[slot].when >= now_);
    now_ = slots_[slot].when;
    // Move the callback out and recycle the slot *before* invoking: the
    // callback may schedule new events (growing the slot arena) or even
    // reuse this very slot.
    Callback cb = std::move(slots_[slot].cb);
    release(slot);
    --liveEvents_;
    ++executed_;
    cb();
}

bool
EventQueue::step()
{
    std::int64_t slot = popNextLive(tickNever);
    if (slot < 0)
        return false;
    executeSlot(std::uint32_t(slot));
    return true;
}

Tick
EventQueue::runUntil(Tick limit)
{
    std::int64_t slot;
    while (!abort_.load(std::memory_order_relaxed) &&
           (slot = popNextLive(limit)) >= 0) {
        executeSlot(std::uint32_t(slot));
        if ((executed_ & (beatPeriod - 1)) == 0)
            publishProgress();
    }
    publishProgress();
    return now_;
}

Tick
EventQueue::runWindowed(Tick limit, Tick window,
                        const std::function<void(Tick)> &on_round)
{
    std::int64_t slot;
    while (!abort_.load(std::memory_order_relaxed) &&
           (slot = popNextLive(limit)) >= 0) {
        Tick when = slots_[std::uint32_t(slot)].when;
        if (when > windowEnd_ || !windowOpen_) {
            // First event past the round (or the very first event, even
            // at tick 0): the staged engine would have hit a barrier
            // here, planned [when, when + L), and merged its mailboxes.
            // The merge already happened incrementally
            // (scheduleAtChannel); only the phase boundary remains.
            windowOpen_ = true;
            windowEnd_ = std::min(when + window - 1, limit);
            beginRound();
            ++windowedRounds_;
            windowedTicksSum_ += windowEnd_ - when + 1;
            publishProgress();
            if (obs::Tracer::on(obs::Cat::Engine))
                obs::Tracer::engineSpan("window", when, windowEnd_ + 1,
                                        windowEnd_ - when + 1);
            if (on_round)
                on_round(when);
        }
        executeSlot(std::uint32_t(slot));
        if ((executed_ & (beatPeriod - 1)) == 0)
            publishProgress();
    }
    publishProgress();
    return now_;
}

} // namespace ltp
