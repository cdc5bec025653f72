/**
 * @file
 * WindowBarrier: the synchronization point between parallel-engine
 * rounds.
 *
 * A sense-reversing barrier for a small, fixed set of shard threads.
 * The last thread to arrive runs a completion callable while every
 * other thread is parked — that is where the engine merges cross-shard
 * mailboxes and plans the next conservative window with all shards
 * quiescent — then releases the generation.
 *
 * Windows are tens of microseconds of work, so waiters spin with a
 * cpu-relax hint first; a short wait almost always ends inside the
 * spin budget. When it does not — a shard with a lopsided window, or a
 * machine with fewer cores than shards — the waiter parks on a futex
 * keyed to the generation word instead of burning its timeslice, and
 * the releasing thread wakes the parked set only when someone actually
 * sleeps (a count of parked waiters keeps the common all-spinners round
 * syscall-free).
 * On non-Linux hosts the park degrades to std::this_thread::yield().
 * Oversubscribed runs (more parties than cores) skip the spin phase
 * entirely: spinning there only steals the running shard's timeslice.
 */

#ifndef LTP_SIM_PAR_WINDOW_BARRIER_HH
#define LTP_SIM_PAR_WINDOW_BARRIER_HH

#include <atomic>
#include <cstdint>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#endif

namespace ltp
{

/** Reusable barrier with a serial completion phase. */
class WindowBarrier
{
  public:
    explicit WindowBarrier(unsigned parties)
        : parties_(parties),
          spinLimit_(parties <= std::thread::hardware_concurrency()
                         ? 4096u
                         : 0u)
    {
    }

    WindowBarrier(const WindowBarrier &) = delete;
    WindowBarrier &operator=(const WindowBarrier &) = delete;

    /**
     * Arrive; the last arriver runs @p completion (alone), then all
     * parties proceed. Release/acquire ordering on the generation word
     * makes every write before any arrive visible to every thread after
     * the corresponding return.
     *
     * @return true when this arrival exhausted its spin budget and
     *         parked at least once (profiling/tracing signal; the last
     *         arriver never waits, hence never parks).
     */
    template <typename F>
    bool
    arriveAndWait(F &&completion)
    {
        if (aborted_.load(std::memory_order_acquire))
            return false;
        std::uint32_t gen = generation_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            completion();
            arrived_.store(0, std::memory_order_relaxed);
            // Publish the new generation BEFORE reading the sleeper
            // count: a waiter that registers after our load is
            // guaranteed to observe the new generation (or to have its
            // futex-wait bounce off the changed word), so no wake-up
            // can be lost. Both sides of this Dekker-style handshake
            // (store generation / load sleepers here, add sleeper /
            // load generation in park()) must be seq_cst: with mere
            // release ordering a weakly ordered machine could hoist
            // the sleepers_ read above the generation publish and
            // elide the wake for a waiter that then sleeps forever.
            // A count, not a flag the releaser clears: a waiter of the
            // NEXT generation can register before this release reads
            // it, and clearing would swallow that waiter's wake-up.
            generation_.fetch_add(1, std::memory_order_seq_cst);
            if (sleepers_.load(std::memory_order_seq_cst) != 0)
                wakeAll();
            return false;
        }
        unsigned spins = 0;
        bool parked = false;
        while (generation_.load(std::memory_order_acquire) == gen &&
               !aborted_.load(std::memory_order_acquire)) {
            if (++spins < spinLimit_) {
#if defined(__x86_64__) || defined(__i386__)
                __builtin_ia32_pause();
#endif
            } else {
                park(gen);
                parked = true;
            }
        }
        return parked;
    }

    /** Arrive with no completion work. */
    bool arriveAndWait() { return arriveAndWait([] {}); }

    unsigned parties() const { return parties_; }

    /**
     * Tear the barrier down: every current and future arriveAndWait()
     * returns immediately without running a completion. Bumping the
     * generation word (seq_cst, same Dekker handshake as a normal
     * release) kicks spinners and futex-parked waiters loose. Callable
     * from any thread — this is the guard watchdog's escape hatch for a
     * wedged round; callers are expected to observe a stop flag after
     * returning. Irreversible for the barrier's lifetime.
     */
    void
    abort()
    {
        aborted_.store(true, std::memory_order_seq_cst);
        generation_.fetch_add(1, std::memory_order_seq_cst);
        wakeAll();
    }

    bool
    aborted() const
    {
        return aborted_.load(std::memory_order_acquire);
    }

    /**
     * Watchdog probes (relaxed; monitoring only): a frozen generation
     * with a nonzero arrival count for longer than the stall budget
     * means some shard stopped arriving — the signature of a wedge.
     */
    std::uint32_t
    generationValue() const
    {
        return generation_.load(std::memory_order_relaxed);
    }

    unsigned
    arrivedCount() const
    {
        return arrived_.load(std::memory_order_relaxed);
    }

    /**
     * Arrivals that exhausted the spin budget and futex-parked, summed
     * over all parties — the engine profile's spin-vs-park signal
     * (obs/engine_profile.hh). Relaxed: a profiling count, read after
     * the run's final barrier.
     */
    std::uint64_t
    parks() const
    {
        return parks_.load(std::memory_order_relaxed);
    }

  private:
    void
    park(std::uint32_t gen)
    {
        parks_.fetch_add(1, std::memory_order_relaxed);
#if defined(__linux__)
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        // FUTEX_WAIT re-checks the word against gen atomically in the
        // kernel: if the releaser already bumped the generation this
        // returns immediately with EAGAIN instead of sleeping.
        syscall(SYS_futex, reinterpret_cast<std::uint32_t *>(&generation_),
                FUTEX_WAIT_PRIVATE, gen, nullptr, nullptr, 0);
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
#else
        (void)gen;
        std::this_thread::yield();
#endif
    }

    void
    wakeAll()
    {
#if defined(__linux__)
        syscall(SYS_futex, reinterpret_cast<std::uint32_t *>(&generation_),
                FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
#endif
    }

    const unsigned parties_;
    const unsigned spinLimit_; //!< 0 when oversubscribed: park at once
    std::atomic<unsigned> arrived_{0};
    /** The futex word. 32 bits so the kernel can compare it; wraparound
     *  is harmless (waiters only test inequality, and 2^32 windows is
     *  far beyond any run). */
    std::atomic<std::uint32_t> generation_{0};
    /** Waiters inside park(); the releaser wakes when nonzero. */
    std::atomic<unsigned> sleepers_{0};
    std::atomic<std::uint64_t> parks_{0};
    /** Torn down by abort(); waiters fall through from then on. */
    std::atomic<bool> aborted_{false};

    static_assert(sizeof(std::atomic<std::uint32_t>) == 4,
                  "futex word must be 32 bits");
};

} // namespace ltp

#endif // LTP_SIM_PAR_WINDOW_BARRIER_HH
