/**
 * @file
 * Per-node cache tag store for remotely-homed (shared) data.
 *
 * The paper's network cache is "large enough to eliminate all
 * capacity/conflict traffic" (Table 1), so the tag store is unbounded:
 * every miss is a cold or coherence miss, and a block leaves only by an
 * invalidation or a self-invalidation.
 */

#ifndef LTP_MEM_CACHE_HH
#define LTP_MEM_CACHE_HH

#include <cstdint>

#include "mem/addr.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace ltp
{

/** Cache-side coherence state of a block. */
enum class CacheState : std::uint8_t
{
    Invalid,
    Shared,    //!< read-only copy
    Exclusive, //!< writable (and presumed dirty) copy
};

/** One cached block's bookkeeping. */
struct CacheLine
{
    CacheState state = CacheState::Invalid;
    /**
     * The block's home node, recorded at the fill (the data reply's
     * sender), so a re-fetch or a self-invalidation needs no HomeMap
     * lookup. It sits in padding the version's alignment leaves.
     */
    NodeId home = invalidNode;
    /** DSI write-version carried with the data reply that filled us. */
    std::uint64_t version = 0;
};

static_assert(sizeof(CacheLine) == 16, "CacheLine grew past 16 bytes");

/**
 * Tag store. Addresses handed in are block-aligned by the cache itself.
 */
class Cache
{
  public:
    /** @param block_size block size in bytes (power of two). */
    explicit Cache(unsigned block_size) : math_(block_size) {}

    unsigned blockSize() const { return math_.blockSize(); }

    /** Look up the line for @p addr; nullptr if not present. */
    CacheLine *find(Addr addr);
    const CacheLine *find(Addr addr) const;

    /**
     * Look up the bookkeeping entry for @p addr even when the block is
     * Invalid (invalidated entries are retained so the next request can
     * report the DSI version of the copy it last held).
     */
    CacheLine *findAny(Addr addr);

    /** State of @p addr (Invalid when absent). */
    CacheState state(Addr addr) const;

    /**
     * Insert (or upgrade) a block in @p state, in one lookup. A newly
     * resident line has version 0 and no home; the caller stamps both
     * from the data reply. @return the resident line.
     */
    CacheLine &insert(Addr addr, CacheState state);

    /**
     * Drop @p line's block (invalidation / self-invalidation). The entry
     * stays, Invalid, so the DSI version survives for the next request.
     */
    static void
    invalidate(CacheLine &line)
    {
        line.state = CacheState::Invalid;
    }

    /** Visit every resident block address (used by DSI's candidate walk). */
    template <typename Fn>
    void
    forEachResident(Fn &&fn) const
    {
        for (const auto &[blk, line] : lines_) {
            if (line.state != CacheState::Invalid)
                fn(blk, line);
        }
    }

  private:
    BlockMath math_;
    /** Keyed by block-aligned address. */
    FlatMap<Addr, CacheLine> lines_;
};

} // namespace ltp

#endif // LTP_MEM_CACHE_HH
