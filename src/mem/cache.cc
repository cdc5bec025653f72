#include "mem/cache.hh"

#include <cassert>

namespace ltp
{

CacheLine *
Cache::find(Addr addr)
{
    CacheLine *l = lines_.find(math_.align(addr));
    return l && l->state != CacheState::Invalid ? l : nullptr;
}

const CacheLine *
Cache::find(Addr addr) const
{
    const CacheLine *l = lines_.find(math_.align(addr));
    return l && l->state != CacheState::Invalid ? l : nullptr;
}

CacheState
Cache::state(Addr addr) const
{
    const CacheLine *l = find(addr);
    return l ? l->state : CacheState::Invalid;
}

CacheLine *
Cache::findAny(Addr addr)
{
    return lines_.find(math_.align(addr));
}

void
Cache::insert(Addr addr, CacheState state)
{
    assert(state != CacheState::Invalid);
    Addr blk = math_.align(addr);

    CacheLine *existing = lines_.find(blk);
    if (existing && existing->state != CacheState::Invalid) {
        // Upgrade in place (e.g., Shared -> Exclusive).
        existing->state = state;
        return;
    }
    lines_.insert(blk, CacheLine{state});
}

void
Cache::invalidate(Addr addr)
{
    // Keep the entry (state Invalid) so the DSI version survives for the
    // next request.
    if (CacheLine *l = lines_.find(math_.align(addr)))
        l->state = CacheState::Invalid;
}

} // namespace ltp
