/**
 * @file
 * Simulated memory contents.
 *
 * The timing simulator mostly cares about *which* blocks are touched, but
 * synchronization (test-and-set spin locks, flags, work-queue indices)
 * needs real values. MemoryValues is a sparse 64-bit-word store shared by
 * all nodes; the coherence protocol guarantees that reads and writes are
 * serialized correctly, so a single value store suffices.
 *
 * Parallel runs: the protocol already serializes conflicting accesses to
 * any one word by at least the interconnect latency (ownership has to
 * move between nodes), which is >= the engine's conservative window — so
 * per-word accesses never race across shards. What does need protection
 * is the *container*: an insert into a hash map can rehash under a
 * concurrent reader of a different word. The store is therefore striped
 * by word address, and each stripe takes a tiny spin lock around its map
 * operations — but only when setConcurrent(true) was called, so a
 * 1-shard run pays nothing.
 */

#ifndef LTP_MEM_MEMORY_VALUES_HH
#define LTP_MEM_MEMORY_VALUES_HH

#include <array>
#include <atomic>
#include <cstdint>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace ltp
{

/** Sparse word-granularity simulated memory. */
class MemoryValues
{
  public:
    /** Stripe the locks on (parallel engine); off by default. */
    void setConcurrent(bool on) { concurrent_ = on; }

    /** Read the 64-bit word at @p a (8-byte aligned); absent words are 0. */
    std::uint64_t
    load(Addr a) const
    {
        const Stripe &s = stripe(a);
        Guard g(s.lock, concurrent_);
        const std::uint64_t *v = s.words.find(wordAddr(a));
        return v ? *v : 0;
    }

    /** Write the 64-bit word at @p a. */
    void
    store(Addr a, std::uint64_t v)
    {
        Stripe &s = stripe(a);
        Guard g(s.lock, concurrent_);
        s.words[wordAddr(a)] = v;
    }

    /**
     * Atomic test-and-set: write @p set_to and return the previous value.
     * Atomicity is provided by the caller holding exclusive coherence
     * permission for the block.
     */
    std::uint64_t
    testAndSet(Addr a, std::uint64_t set_to)
    {
        Stripe &s = stripe(a);
        Guard g(s.lock, concurrent_);
        Addr w = wordAddr(a);
        std::uint64_t old = 0;
        if (const std::uint64_t *v = s.words.find(w))
            old = *v;
        s.words[w] = set_to;
        return old;
    }

    /** Atomic fetch-and-add; returns the previous value. */
    std::uint64_t
    fetchAdd(Addr a, std::uint64_t delta)
    {
        Stripe &s = stripe(a);
        Guard g(s.lock, concurrent_);
        Addr w = wordAddr(a);
        std::uint64_t old = s.words[w];
        s.words[w] = old + delta;
        return old;
    }

    std::size_t
    wordCount() const
    {
        std::size_t n = 0;
        for (const Stripe &s : stripes_)
            n += s.words.size();
        return n;
    }

  private:
    static constexpr std::size_t numStripes = 64;

    struct Stripe
    {
        FlatMap<Addr, std::uint64_t> words;
        mutable std::atomic_flag lock = ATOMIC_FLAG_INIT;
    };

    /** Scoped stripe lock; a no-op unless setConcurrent(true). */
    class Guard
    {
      public:
        Guard(std::atomic_flag &lock, bool locked)
            : lock_(lock), locked_(locked)
        {
            if (locked_)
                while (lock_.test_and_set(std::memory_order_acquire)) {
                }
        }
        ~Guard()
        {
            if (locked_)
                lock_.clear(std::memory_order_release);
        }
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;

      private:
        std::atomic_flag &lock_;
        bool locked_;
    };

    static Addr wordAddr(Addr a) { return a & ~Addr(7); }

    Stripe &stripe(Addr a) { return stripes_[(a >> 3) % numStripes]; }
    const Stripe &
    stripe(Addr a) const
    {
        return stripes_[(a >> 3) % numStripes];
    }

    std::array<Stripe, numStripes> stripes_;
    bool concurrent_ = false;
};

} // namespace ltp

#endif // LTP_MEM_MEMORY_VALUES_HH
