/**
 * @file
 * Slab/arena storage for in-flight protocol messages, addressed by
 * 8-byte generation-tagged index handles.
 *
 * Every hop of a message through the interconnect used to copy the
 * full 56-byte Message POD: into link queues, router input buffers,
 * the ingress reorder buffer, the NI FIFOs, and — heaviest of all —
 * the capture lists of the per-hop events crossing the parallel
 * engine's SPSC mailbox lanes. With the pool, a message is written
 * once at injection into per-shard slab storage and travels as a
 * single word (MsgHandle) until delivery frees it, so event captures
 * and queue entries shrink to pointer size and ring traffic moves one
 * word per hop.
 *
 * Ownership discipline (what makes this race-free without locks):
 *  - a message is allocated on its *source* node's shard and only ever
 *    mutated by the event currently carrying it — exactly one logical
 *    owner at any tick, the same discipline the by-value code had;
 *  - each shard's free list is single-consumer: only events running on
 *    that shard allocate from it;
 *  - delivery usually happens on another shard, so remote frees push
 *    onto a per-shard Treiber stack (lock-free LIFO over the slot
 *    array's `nextFree` links, which live in stable slab memory); the
 *    owner drains the whole stack with one exchange when its local
 *    list runs dry.
 *
 * Handles are generation-tagged: each slot carries a generation
 *  counter bumped on every free, and a handle embeds the generation it
 * was allocated under. Debug builds assert the tags match on every
 * dereference, so a use-after-free or double-free trips immediately
 * instead of silently reading a recycled message. Handle *values*
 * depend on allocation history and are never compared, ordered, or
 * dumped — all observable ordering keys (tick, channel, netSeq) live
 * in the Message itself, which keeps runs bit-identical for every
 * shard count.
 *
 * Slabs are fixed-size arrays behind stable pointers: growth never
 * moves a live slot, so `Message &` references obtained from at() stay
 * valid across any amount of later allocation (delivery reads the
 * message while the sink it calls may inject new ones).
 */

#ifndef LTP_NET_MESSAGE_POOL_HH
#define LTP_NET_MESSAGE_POOL_HH

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.hh"

namespace ltp
{

/**
 * An 8-byte reference to a pooled Message: [gen:24 | shard:8 | slot:32].
 * The slot field stores index+1 so a value-initialized handle (bits 0)
 * is never valid. Trivially copyable — this is what event captures and
 * queue entries hold instead of the Message.
 */
struct MsgHandle
{
    std::uint64_t bits = 0;

    bool valid() const { return bits != 0; }
    std::uint32_t gen() const { return std::uint32_t(bits >> 40); }
    unsigned shard() const { return unsigned((bits >> 32) & 0xff); }
    std::uint32_t slot() const { return std::uint32_t(bits) - 1; }
};

/** Per-shard arena of Message slots addressed by MsgHandle. */
class MessagePool
{
  public:
    explicit MessagePool(unsigned num_shards) : shards_(num_shards)
    {
        assert(num_shards >= 1 && num_shards <= 256 &&
               "shard id must fit the handle's 8-bit field");
    }

    MessagePool(const MessagePool &) = delete;
    MessagePool &operator=(const MessagePool &) = delete;

    /**
     * Copy @p m into a fresh slot of @p shard's arena and return its
     * handle. @pre the calling event runs on @p shard (the shard of the
     * message's source node) — each arena's free list has exactly one
     * consumer.
     */
    MsgHandle
    alloc(unsigned shard, const Message &m)
    {
        Shard &sh = shards_[shard];
        std::uint32_t idx = sh.freeHead;
        if (idx == nilIndex) {
            // Local list dry: claim everything remote shards freed
            // back to us since the last drain (one exchange; the LIFO
            // chain is already linked through nextFree).
            sh.freeHead =
                sh.remoteFree.exchange(nilIndex, std::memory_order_acquire);
            idx = sh.freeHead;
        }
        Slot *s;
        if (idx != nilIndex) {
            s = &sh.slot(idx);
            sh.freeHead = s->nextFree;
        } else {
            idx = sh.grow();
            s = &sh.slot(idx);
        }
        s->msg = m;
        ++sh.allocs;
        std::uint32_t g = s->gen.load(std::memory_order_relaxed) & genMask;
        return MsgHandle{(std::uint64_t(g) << 40) |
                         (std::uint64_t(shard) << 32) |
                         std::uint64_t(idx + 1)};
    }

    /** The message behind @p h. The reference is stable until free(). */
    Message &
    at(MsgHandle h)
    {
        Slot &s = shards_[h.shard()].slot(h.slot());
        assert(h.valid() &&
               (s.gen.load(std::memory_order_relaxed) & genMask) ==
                   h.gen() &&
               "stale message handle (freed or recycled slot)");
        return s.msg;
    }

    const Message &
    at(MsgHandle h) const
    {
        const Slot &s = shards_[h.shard()].slot(h.slot());
        assert(h.valid() &&
               (s.gen.load(std::memory_order_relaxed) & genMask) ==
                   h.gen() &&
               "stale message handle (freed or recycled slot)");
        return s.msg;
    }

    /**
     * Return @p h's slot to its owning arena. @p caller_shard is the
     * shard the freeing event runs on (the destination node's shard):
     * a same-shard free is two plain writes, a cross-shard free one
     * lock-free push onto the owner's remote stack. The handle — and
     * any copy of it — is dead after this call.
     */
    void
    free(MsgHandle h, unsigned caller_shard)
    {
        unsigned owner = h.shard();
        Shard &sh = shards_[owner];
        std::uint32_t idx = h.slot();
        Slot &s = sh.slot(idx);
        assert(h.valid() &&
               (s.gen.load(std::memory_order_relaxed) & genMask) ==
                   h.gen() &&
               "double free (or stale handle)");
        // Bump the generation first: every outstanding copy of this
        // handle is stale from here on. A live slot's generation has one
        // writer (its freeing event), and the owner's next alloc() reads
        // it after the Treiber stack's acquire (or on this thread), so a
        // plain load and store do; no locked read-modify-write.
        s.gen.store(s.gen.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
        if (caller_shard == owner) {
            s.nextFree = sh.freeHead;
            sh.freeHead = idx;
            ++sh.localFrees;
            return;
        }
        // Treiber push; the release pairs with alloc()'s acquire
        // exchange, ordering our last reads of the message before the
        // owner's next reuse of the slot.
        std::uint32_t head = sh.remoteFree.load(std::memory_order_relaxed);
        do {
            s.nextFree = head;
        } while (!sh.remoteFree.compare_exchange_weak(
            head, idx, std::memory_order_release,
            std::memory_order_relaxed));
        sh.remoteFrees.fetch_add(1, std::memory_order_relaxed);
    }

    /** Messages currently allocated (harness/quiesce checks only). */
    std::uint64_t liveMessages() const;

    /** Slabs shard @p s has grown to (tests observe burst growth). */
    std::size_t numSlabs(unsigned s) const
    {
        return shards_[s].slabs.size();
    }
    /** Slots shard @p s has ever materialized (its high-water mark). */
    std::uint32_t highWater(unsigned s) const
    {
        return shards_[s].numSlots;
    }

    static constexpr std::uint32_t genMask = 0xffffffu;

  private:
    static constexpr std::uint32_t nilIndex = 0xffffffffu;
    static constexpr std::uint32_t slabShift = 10; //!< 1024 slots / slab
    static constexpr std::uint32_t slabMask = (1u << slabShift) - 1;

    /** One message plus its recycling metadata, padded to a cache line
     *  so neighboring slots on different shards never false-share. */
    struct alignas(64) Slot
    {
        Message msg;
        /** Allocation generation; bumped on free. Atomic so the Debug
         *  stale-handle check itself is race-free under TSan. */
        std::atomic<std::uint32_t> gen{1};
        /** Free-list link (local list or remote Treiber stack). */
        std::uint32_t nextFree = 0;
    };
    static_assert(sizeof(Slot) == 64, "one slot per cache line");

    struct Shard
    {
        std::vector<std::unique_ptr<std::array<Slot, 1u << slabShift>>>
            slabs;
        std::uint32_t freeHead = nilIndex; //!< owner-only LIFO
        std::uint32_t numSlots = 0;        //!< slots ever materialized
        std::uint64_t allocs = 0;
        std::uint64_t localFrees = 0;
        /** Slots freed by other shards, awaiting the owner's drain. */
        std::atomic<std::uint32_t> remoteFree{nilIndex};
        std::atomic<std::uint64_t> remoteFrees{0};

        Slot &slot(std::uint32_t i)
        {
            return (*slabs[i >> slabShift])[i & slabMask];
        }
        const Slot &slot(std::uint32_t i) const
        {
            return (*slabs[i >> slabShift])[i & slabMask];
        }
        std::uint32_t grow();
    };

    std::vector<Shard> shards_;
};

} // namespace ltp

#endif // LTP_NET_MESSAGE_POOL_HH
