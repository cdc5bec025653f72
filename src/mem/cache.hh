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
    /** DSI write-version carried with the data reply that filled us. */
    std::uint64_t version = 0;
};

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
     * Insert (or upgrade) a block in @p state. A newly resident line
     * has version 0; the caller stamps the version of the data.
     */
    void insert(Addr addr, CacheState state);

    /** Drop the block (invalidation / self-invalidation). */
    void invalidate(Addr addr);

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
