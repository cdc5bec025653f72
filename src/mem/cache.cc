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

CacheLine &
Cache::insert(Addr addr, CacheState state)
{
    assert(state != CacheState::Invalid);
    CacheLine &line = lines_[math_.align(addr)];
    if (line.state == CacheState::Invalid)
        line = CacheLine{state};
    else
        line.state = state; // upgrade in place (Shared -> Exclusive)
    return line;
}

} // namespace ltp
