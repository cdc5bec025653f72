/**
 * @file
 * Per-node cache tag store for remotely-homed (shared) data.
 *
 * The paper assumes a network cache "large enough to eliminate all
 * capacity/conflict traffic", so the default configuration is an
 * unbounded tag store: every miss is a cold or coherence miss. A finite
 * set-associative mode (with LRU replacement) is provided for unit tests
 * and sensitivity studies.
 */

#ifndef LTP_MEM_CACHE_HH
#define LTP_MEM_CACHE_HH

#include <cstdint>
#include <list>
#include <optional>
#include <vector>

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
    /**
     * @param block_size block size in bytes (power of two).
     * @param num_sets   0 for an unbounded cache; otherwise sets count.
     * @param ways       associativity (ignored when unbounded).
     */
    Cache(unsigned block_size, unsigned num_sets = 0, unsigned ways = 0);

    unsigned blockSize() const { return math_.blockSize(); }
    bool unbounded() const { return numSets_ == 0; }

    /** Look up the line for @p addr; nullptr if not present. */
    CacheLine *find(Addr addr);
    const CacheLine *find(Addr addr) const;

    /**
     * Look up the bookkeeping entry for @p addr even when the block is
     * Invalid (unbounded caches retain invalidated entries so the next
     * request can report the DSI version of the copy it last held).
     */
    CacheLine *findAny(Addr addr);

    /** State of @p addr (Invalid when absent). */
    CacheState state(Addr addr) const;

    /** An eviction forced by insert() in finite mode. */
    struct Victim
    {
        Addr addr;
        CacheState state;
    };

    /**
     * Insert (or upgrade) a block in @p state. A newly resident line
     * has version 0; the caller stamps the version of the data.
     *
     * @return the victim evicted to make room, if any (finite mode only).
     */
    std::optional<Victim> insert(Addr addr, CacheState state);

    /** Drop the block entirely (invalidation / self-invalidation). */
    void invalidate(Addr addr);

    /** Downgrade Exclusive -> Shared (not used by the migratory protocol
     *  the paper models, but exercised in tests). */
    void downgrade(Addr addr);

    /** Number of resident (non-Invalid) blocks. */
    std::size_t residentBlocks() const;

    /** Visit every resident block address (used by DSI's candidate walk). */
    template <typename Fn>
    void
    forEachResident(Fn &&fn) const
    {
        for (const auto &[blk, ent] : lines_) {
            if (ent.line.state != CacheState::Invalid)
                fn(blk, ent.line);
        }
    }

  private:
    struct Entry
    {
        CacheLine line;
        /** Position in the set's LRU list (finite mode only). */
        std::list<Addr>::iterator lruPos;
    };

    std::size_t setIndex(Addr block_addr) const;
    void touchLru(Addr block_addr, Entry &e);

    BlockMath math_;
    unsigned numSets_;
    unsigned ways_;
    /** Keyed by block-aligned address. */
    FlatMap<Addr, Entry> lines_;
    /** Per-set LRU order, most recent at front (finite mode only). */
    std::vector<std::list<Addr>> lru_;
};

} // namespace ltp

#endif // LTP_MEM_CACHE_HH
