/**
 * @file
 * Directory state for the full-map write-invalidate protocol.
 *
 * Pure bookkeeping: one DirEntry per memory block that has ever been
 * requested, holding the stable protocol state (Idle / Shared /
 * Exclusive), the full-map sharer set, the DSI write-version number, and
 * the self-invalidation verification mask of Section 4. The protocol
 * engine keeps its per-block state in the same entry, so one lookup
 * serves a whole protocol action.
 */

#ifndef LTP_PROTO_DIRECTORY_HH
#define LTP_PROTO_DIRECTORY_HH

#include <cstdint>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace ltp
{

/** Stable directory states (Section 2). */
enum class DirState : std::uint8_t
{
    Idle,      //!< block only at home
    Shared,    //!< read-only copies at one or more remote caches
    Exclusive, //!< writable copy at exactly one cache
};

const char *dirStateName(DirState s);

/**
 * The most nodes a system can have: a DirEntry's sharer and verification
 * masks hold one bit per node.
 */
constexpr NodeId maxNodes = 64;

/**
 * Per-block directory record. The 64-bit fields come first and the
 * narrow ones share the last word, so an entry is one 64-byte line.
 */
struct DirEntry
{
    /** "No index" for txn and parked. */
    static constexpr std::uint32_t none = ~std::uint32_t(0);

    /** Full-map sharer bit vector, one bit per node (maxNodes). */
    std::uint64_t sharers = 0;

    /** DSI: write-version, incremented on every exclusive grant. */
    std::uint64_t version = 0;

    /**
     * Verification mask (Section 4): bit set for each node whose
     * self-invalidation has not yet been proven correct or premature.
     */
    std::uint64_t verifMask = 0;
    /** Whether the self-invalidation arrived timely (per masked node). */
    std::uint64_t timelyMask = 0;
    /** Masked nodes whose self-invalidated copy was a write copy. */
    std::uint64_t writeCopyMask = 0;

    // The protocol engine's per-block state (DirController).

    /**
     * Nodes whose self-invalidation crossed a recall and answered it.
     * Each still owes the plain InvAck it sends when the recall finds
     * its copy gone; that ack is stale.
     */
    std::uint64_t owedAcks = 0;

    NodeId owner = invalidNode;
    /** The in-flight transaction (an index into the engine's pool). */
    std::uint32_t txn = none;
    /**
     * Requests parked on the busy block: the tail of a circular FIFO in
     * the engine's message pool (the tail's link is the head).
     */
    std::uint32_t parked = none;

    DirState state = DirState::Idle;
    /** True while a transaction or a data reply for this block is in
     *  flight. */
    bool busy = false;

    bool isSharer(NodeId n) const { return (sharers >> n) & 1; }
    void addSharer(NodeId n) { sharers |= (std::uint64_t(1) << n); }
    void removeSharer(NodeId n) { sharers &= ~(std::uint64_t(1) << n); }
    unsigned numSharers() const { return __builtin_popcountll(sharers); }

    bool inVerifMask(NodeId n) const { return (verifMask >> n) & 1; }

    void
    setVerif(NodeId n, bool timely)
    {
        verifMask |= (std::uint64_t(1) << n);
        if (timely)
            timelyMask |= (std::uint64_t(1) << n);
        else
            timelyMask &= ~(std::uint64_t(1) << n);
    }

    /** Remove @p n from the masks; @return whether its entry was timely. */
    bool
    clearVerif(NodeId n)
    {
        bool timely = (timelyMask >> n) & 1;
        verifMask &= ~(std::uint64_t(1) << n);
        timelyMask &= ~(std::uint64_t(1) << n);
        writeCopyMask &= ~(std::uint64_t(1) << n);
        return timely;
    }
};

static_assert(sizeof(DirEntry) == 64, "DirEntry grew past 64 bytes");

/** The directory of one home node: block address -> entry. */
class Directory
{
  public:
    /** Get (creating on demand) the entry for block-aligned @p blk. */
    DirEntry &entry(Addr blk) { return entries_[blk]; }

    /** Lookup without creating. */
    const DirEntry *find(Addr blk) const { return entries_.find(blk); }

    std::size_t numEntries() const { return entries_.size(); }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[blk, e] : entries_)
            fn(blk, e);
    }

  private:
    FlatMap<Addr, DirEntry> entries_;
};

} // namespace ltp

#endif // LTP_PROTO_DIRECTORY_HH
