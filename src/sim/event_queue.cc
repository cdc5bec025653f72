#include "sim/event_queue.hh"

#include <cassert>

namespace ltp
{

EventQueue::Slot *
EventQueue::grow()
{
    std::size_t i = numSlots_++ & chunkMask;
    if (i == 0)
        chunks_.push_back(std::make_unique<Chunk>());
    return &(*chunks_.back())[i];
}

void
EventQueue::enqueue(Slot *s, Tick when, std::uint64_t key)
{
    s->when = when;
    s->key = key;
    s->seq = nextSeq_++;

    bool force_overflow =
        calOverflowPeriod_ && nextSeq_ % calOverflowPeriod_ == 0;
    if (when - now_ < window && !force_overflow) {
        pushBucket(s);
    } else {
        // Far-future event — or the cal-overflow fault pretending it
        // is one. Either way the event waits in the heap and migrate()
        // links it into its tick's list before it can fire, so the
        // forced detour is invisible to results.
        overflow_.push(OverflowEntry{when, key, s->seq, s});
    }
    ++liveEvents_;
}

void
EventQueue::linkReserved(Slot *s)
{
    if (s->when - now_ >= window) {
        // Every event of a tick beyond the window waits in the heap,
        // which releases them in (key, sequence) order.
        overflow_.push(OverflowEntry{s->when, 0, s->seq, s});
        return;
    }
    Slot *tail = tails_[std::size_t(s->when) & windowMask];
    if (!tail || (tail->key == 0 && tail->seq < s->seq))
        pushBucket(s);
    else
        insertSorted(tail, s);
}

void
EventQueue::pushBucket(Slot *s)
{
    assert(s->when - now_ < window);
    std::size_t idx = std::size_t(s->when) & windowMask;
    Slot *&tail = tails_[idx];
    if (!tail) {
        s->next = s;
        tail = s;
        bitmap_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    } else if (tail->key <= s->key) {
        // Hot path: keys are nondecreasing for plain scheduleAt()
        // traffic (key 0), so this is a pure append.
        s->next = tail->next;
        tail->next = s;
        tail = s;
    } else {
        insertSorted(tail, s);
    }
}

// Out of line on purpose: only an event overtaking same-tick events of
// a later key (a channel post passing a larger channel id, a local
// passing the tick's pending posts), a migrated overflow event doing
// the same, or a reserved wake passing younger locals lands here, and
// keeping the list walk out of pushBucket() keeps the append path's
// code footprint minimal.
__attribute__((noinline)) void
EventQueue::insertSorted(Slot *tail, Slot *s)
{
    // s goes after the last entry that precedes it in (key, sequence)
    // order. The walk starts at the tail, whose next is the head; the
    // tail follows s, so the walk stops before passing it. Tick lists
    // are short.
    Slot *prev = tail;
    for (Slot *n = prev->next;
         n->key < s->key || (n->key == s->key && n->seq < s->seq);
         n = n->next)
        prev = n;
    s->next = prev->next;
    prev->next = s;
}

void
EventQueue::migrateSlow()
{
    while (!overflow_.empty() && overflow_.top().when - now_ < window) {
        Slot *s = overflow_.top().slot;
        overflow_.pop();
        pushBucket(s);
        ++overflowMigrations_;
    }
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
    return noBucket;
}

EventQueue::Slot *
EventQueue::popNext(Tick limit)
{
    migrate();
    std::size_t idx = firstBucket();
    if (idx != noBucket) {
        Slot *&tail = tails_[idx];
        Slot *s = tail->next; // the head
        if (s->when > limit)
            return nullptr; // leave it pending for a later run
        if (s == tail) {
            tail = nullptr;
            bitmap_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
        } else {
            tail->next = s->next;
        }
        return s;
    }
    // Ring empty: the next event is a far-future one in the overflow
    // heap. It runs straight from there; the rest of its tick migrates
    // once now_ reaches it.
    if (overflow_.empty() || overflow_.top().when > limit)
        return nullptr;
    Slot *s = overflow_.top().slot;
    overflow_.pop();
    return s;
}

Tick
EventQueue::nextEventTick()
{
    migrate();
    std::size_t idx = firstBucket();
    if (idx != noBucket)
        return tails_[idx]->when; // one tick per list
    return overflow_.empty() ? tickNever : overflow_.top().when;
}

void
EventQueue::execute(Slot *s)
{
    assert(s->when >= now_);
    now_ = s->when;
    runSeq_ = s->key ? ~std::uint64_t(0) : s->seq;
    --liveEvents_;
    ++executed_;
    // The slot is neither linked nor free while the callback runs in
    // place, so whatever it schedules lands in other slots, and arena
    // growth never moves this one (chunks are stable). Destroy and
    // recycle even if the callback throws.
    struct Recycle
    {
        EventQueue &q;
        Slot *s;
        ~Recycle()
        {
            s->cb.reset();
            s->next = q.freeHead_;
            q.freeHead_ = s;
        }
    } recycle{*this, s};
    s->cb();
}

bool
EventQueue::step()
{
    Slot *s = popNext(tickNever);
    if (!s)
        return false;
    execute(s);
    return true;
}

Tick
EventQueue::runUntil(Tick limit)
{
    Slot *s;
    while (!abort_.load(std::memory_order_relaxed) &&
           (s = popNext(limit)) != nullptr) {
        execute(s);
        if ((executed_ & (beatPeriod - 1)) == 0)
            publishProgress();
    }
    publishProgress();
    return now_;
}

} // namespace ltp
