#include "mem/cache.hh"

#include <cassert>

namespace ltp
{

Cache::Cache(unsigned block_size, unsigned num_sets, unsigned ways)
    : math_(block_size), numSets_(num_sets), ways_(ways)
{
    if (numSets_ != 0) {
        assert(isPowerOf2(numSets_));
        assert(ways_ > 0);
        lru_.resize(numSets_);
    }
}

CacheLine *
Cache::find(Addr addr)
{
    Addr blk = math_.align(addr);
    Entry *e = lines_.find(blk);
    if (!e || e->line.state == CacheState::Invalid)
        return nullptr;
    // A lookup is a use: refresh recency so LRU reflects touches.
    touchLru(blk, *e);
    return &e->line;
}

const CacheLine *
Cache::find(Addr addr) const
{
    const Entry *e = lines_.find(math_.align(addr));
    if (!e || e->line.state == CacheState::Invalid)
        return nullptr;
    return &e->line;
}

CacheState
Cache::state(Addr addr) const
{
    const CacheLine *l = find(addr);
    return l ? l->state : CacheState::Invalid;
}

std::size_t
Cache::setIndex(Addr block_addr) const
{
    return std::size_t(math_.blockNum(block_addr)) & (numSets_ - 1);
}

void
Cache::touchLru(Addr block_addr, Entry &e)
{
    if (unbounded())
        return;
    auto &list = lru_[setIndex(block_addr)];
    list.erase(e.lruPos);
    list.push_front(block_addr);
    e.lruPos = list.begin();
}

CacheLine *
Cache::findAny(Addr addr)
{
    Entry *e = lines_.find(math_.align(addr));
    return e ? &e->line : nullptr;
}

std::optional<Cache::Victim>
Cache::insert(Addr addr, CacheState state)
{
    assert(state != CacheState::Invalid);
    Addr blk = math_.align(addr);

    Entry *existing = lines_.find(blk);
    if (existing && existing->line.state != CacheState::Invalid) {
        // Upgrade in place (e.g., Shared -> Exclusive).
        existing->line.state = state;
        touchLru(blk, *existing);
        return std::nullopt;
    }

    std::optional<Victim> victim;
    if (!unbounded()) {
        auto &list = lru_[setIndex(blk)];
        // Count resident ways in this set.
        unsigned resident = 0;
        for (Addr a : list) {
            const Entry *le = lines_.find(a);
            if (le && le->line.state != CacheState::Invalid)
                ++resident;
        }
        if (resident >= ways_) {
            // Evict the least recently used resident block.
            for (auto rit = list.rbegin(); rit != list.rend(); ++rit) {
                const Entry *le = lines_.find(*rit);
                if (le && le->line.state != CacheState::Invalid) {
                    victim = Victim{*rit, le->line.state};
                    break;
                }
            }
            assert(victim);
            invalidate(victim->addr);
        }
    }

    Entry e;
    e.line.state = state;
    if (!unbounded()) {
        auto &list = lru_[setIndex(blk)];
        list.push_front(blk);
        e.lruPos = list.begin();
    }
    lines_.insert(blk, e);
    return victim;
}

void
Cache::invalidate(Addr addr)
{
    Addr blk = math_.align(addr);
    Entry *e = lines_.find(blk);
    if (!e)
        return;
    if (!unbounded() && e->line.state != CacheState::Invalid)
        lru_[setIndex(blk)].erase(e->lruPos);
    // Keep the entry (state Invalid) so the DSI version survives for the
    // next request; finite mode erases fully to bound memory.
    if (unbounded()) {
        e->line.state = CacheState::Invalid;
    } else {
        lines_.erase(blk);
    }
}

void
Cache::downgrade(Addr addr)
{
    CacheLine *l = find(addr);
    if (l && l->state == CacheState::Exclusive)
        l->state = CacheState::Shared;
}

std::size_t
Cache::residentBlocks() const
{
    std::size_t n = 0;
    for (const auto &[blk, ent] : lines_) {
        (void)blk;
        if (ent.line.state != CacheState::Invalid)
            ++n;
    }
    return n;
}

} // namespace ltp
