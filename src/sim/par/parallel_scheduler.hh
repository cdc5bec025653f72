/**
 * @file
 * ParallelScheduler: the simulator's engine — node-partitioned,
 * conservative, bit-deterministic discrete-event execution at every
 * shard count, including one.
 *
 * Every component (network, controllers, thread contexts, sync domain)
 * schedules its events through the scheduler: queueFor(node) is the
 * queue a node's events run on, and post() is the only way to reach
 * another node. The contract that makes sharding safe:
 *
 *  - All state a component mutates from an event belongs to one node
 *    (or one link, owned by its upstream node), and that event runs on
 *    the owning node's queue (queueFor()).
 *
 *  - The only cross-node interactions are post() calls, and every
 *    post() targets a tick at least the lookahead window L beyond the
 *    posting event. The network guarantees this through its minimum
 *    link/flight latency (networkLookahead()); directory verification
 *    verdicts travel one network hop; barrier wakeups wait
 *    barrierLatency.
 *
 *  - post() carries a *channel id* identifying the logical FIFO the
 *    event travels on (see namespace chan). A channel is only ever fed
 *    by one shard, so the canonical (deliveryTick, channel) order is
 *    deterministic: independent of thread timing, of the shard count
 *    and of the window width.
 *
 * The engine also owns its run's observers, built from ObserverConfig
 * at construction: the tracer (tracer()), the invariant checkers
 * (checks()) and the fault plan (faults()). Components reach them
 * through the scheduler they are built on, so a run's whole state is
 * its scheduler and the components on it, and runs in one process
 * never share an observer.
 *
 * Nodes are split into S contiguous partitions, each owning a private
 * EventQueue and StatGroup. Same-tick order is the queue's own rule
 * (see EventQueue, "Same-tick order"): a tick's local events first,
 * FIFO, then its posts by (channel, FIFO). The engine has two run paths
 * behind it.
 *
 * Staged (S > 1): cross-shard posts are exchanged at window barriers
 * through lock-free SPSC mailbox lanes. One round:
 *
 *   1. apply inbox    every shard drains the lanes addressed to it,
 *                     lane by lane, through scheduleAtChannel(). The
 *                     queue sorts each post into place, so the drain
 *                     order does not matter beyond per-lane FIFO.
 *   2. plan window    barrier; the last arriver computes the global
 *                     minimum pending tick W and the window end
 *                     min(W + L - 1, limit, next metrics due - 1), or
 *                     stops the run.
 *   3. execute        every shard runs its queue through the window.
 *                     Lookahead guarantees any post lands at >= W + L,
 *                     i.e. strictly beyond the window, so no shard can
 *                     see an effect before its cause.
 *   4. publish        barrier; lane writes become visible for step 1.
 *
 * Direct dispatch (S == 1): with a single shard there is nothing to
 * exchange, so post() lands straight in the owner queue through
 * EventQueue::scheduleAtChannel(), and a run is a plain
 * EventQueue::runUntil(): no staging, no barrier, no windows.
 *
 * Determinism: each shard's execution is a function of its queue
 * content only; queue content is the deterministic intra-shard schedule
 * plus inbox applications. A node's events touch only that node's
 * state, and the queue orders each node's same-tick events by the rule
 * above whatever else shares the queue and whenever a post arrived.
 * Per-channel post order is the feeding shard's deterministic execution
 * order. Nothing observes wall-clock interleaving or window boundaries,
 * so S = 1, S = 2 and S = 8 produce identical per-node event sequences
 * at any window width — and identical (merged) statistics.
 */

#ifndef LTP_SIM_PAR_PARALLEL_SCHEDULER_HH
#define LTP_SIM_PAR_PARALLEL_SCHEDULER_HH

#include <atomic>
#include <cassert>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/engine_profile.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/guard/checkers.hh"
#include "sim/guard/fault.hh"
#include "sim/par/spsc_ring.hh"
#include "sim/par/window_barrier.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ltp
{

/**
 * Channel-id helpers for post(). The spaces are disjoint; ids only need
 * to be unique per logical FIFO channel (and each channel must be fed
 * from a single shard for the same-tick order to be total).
 *
 * The space tag sits at bit 28: room for 2^28 ids per space — 16 K
 * nodes' (src, dst) pairs, a million links.
 */
namespace chan
{

constexpr std::uint64_t spaceShift = 28;

/** Point-to-point flight of the (src, dst) node pair. */
constexpr std::uint64_t
pair(NodeId src, NodeId dst, NodeId num_nodes)
{
    return (std::uint64_t(0) << spaceShift) |
           (std::uint64_t(src) * num_nodes + dst);
}

/** Hop arrivals leaving physical link @p link_index. */
constexpr std::uint64_t
link(std::size_t link_index)
{
    return (std::uint64_t(1) << spaceShift) | link_index;
}

/** Credit returns for physical link @p link_index. */
constexpr std::uint64_t
credit(std::size_t link_index)
{
    return (std::uint64_t(2) << spaceShift) | link_index;
}

/** Barrier-release wakeups for @p node. */
constexpr std::uint64_t
barrier(NodeId node)
{
    return (std::uint64_t(3) << spaceShift) | node;
}

/** Verification verdicts from directory @p home to @p node (nodes fit
 *  14 bits each, like pair()'s 16 K-node bound). */
constexpr std::uint64_t
verify(NodeId home, NodeId node)
{
    return (std::uint64_t(4) << spaceShift) |
           (std::uint64_t(home) << 14) | node;
}

} // namespace chan

namespace obs
{
class MetricsSampler;
} // namespace obs

/**
 * Settings of the run's observers, which the engine owns: the tracer,
 * the invariant checkers and the fault plan. The default is all off.
 */
struct ObserverConfig
{
    obs::TraceConfig trace;      //!< an empty path traces nothing
    std::uint32_t checkMask = 0; //!< guard::Checks categories
    /** Check per-pair delivery order (only routed networks stamp it). */
    bool pairFifo = false;
    guard::FaultPlan faults;
};

/** The engine (see file comment). */
class ParallelScheduler final
{
  public:
    /**
     * @param shards   partition/thread count. One is valid — and is how
     *                 simThreads=1 runs: the same event order on the
     *                 calling thread through the direct-dispatch fast
     *                 path, so results match every other shard count
     *                 bit for bit.
     * @param num_nodes nodes to spread over the partitions.
     * @param window   conservative lookahead L in ticks (>= 1); every
     *                 post() must land at least this far after its
     *                 posting event.
     * @param observers the run's tracer, checkers and faults.
     */
    ParallelScheduler(unsigned shards, NodeId num_nodes, Tick window,
                      const ObserverConfig &observers = {});
    ~ParallelScheduler();

    /** Number of partitions events are sharded over. */
    unsigned numShards() const { return unsigned(parts_.size()); }
    /** Partition that owns @p node's events. */
    unsigned shardOf(NodeId node) const { return shard_[node]; }
    /** The event queue @p node's events run on. */
    EventQueue &queueFor(NodeId node) { return parts_[shard_[node]]->eq; }
    /** Statistics registry of partition @p shard. */
    StatGroup &shardStats(unsigned shard) { return parts_[shard]->stats; }

    /** The run's tracer; flushed by its owner once the run ends. */
    obs::Tracer &tracer() { return tracer_; }
    /** The run's invariant checkers. */
    guard::Checks &checks() { return checks_; }
    /** The run's fault plan. */
    const guard::FaultPlan &faults() const { return faults_; }

    /**
     * Schedule @p f at absolute tick @p when on @p dst's queue, from an
     * event possibly running on another shard.
     *
     * @p chan identifies the logical FIFO the event belongs to (see
     * namespace chan). @p when must be at least the lookahead window
     * beyond the posting event's tick.
     */
    template <typename F>
    void
    post(NodeId dst, Tick when, std::uint64_t chan, F &&f)
    {
        // The conservative contract, for both paths. A violation would
        // otherwise surface only as silent shard-count-dependent results.
        assert(when >= postingNow() + window_ &&
               "post() closer than the lookahead window: lookahead "
               "contract broken");
        if (directDispatch()) {
            // Fast path: no staging, no barrier. The callable is built
            // straight into its event slot.
            parts_[0]->eq.scheduleAtChannel(when, chan, std::forward<F>(f));
            return;
        }
        postStaged(dst, when, chan, EventQueue::Callback(std::forward<F>(f)));
    }

    /** Drive the simulation until drained or beyond @p limit. */
    Tick runUntil(Tick limit);
    /** Latest tick any partition has reached. */
    Tick now() const;
    /** Total events executed across all partitions. */
    std::uint64_t eventsExecuted() const;

    /**
     * Stop a running runUntil() cleanly with @p reason, from any thread
     * (the guard watchdog); the first reason wins. Raises every shard
     * queue's abort flag, sets the stop flag, and tears down the window
     * barrier so parked shards wake and exit their worker loops instead
     * of waiting for a round that will never complete. Pending events
     * stay queued and runUntil() returns normally.
     */
    void requestAbort(const std::string &reason);
    /** The winning requestAbort() reason; empty when none fired. */
    std::string abortReason() const;

    /**
     * Watchdog progress probes: monitor-thread-safe (atomic mirrors),
     * may trail the true values by a publication beat. See
     * EventQueue::tickApprox().
     */
    Tick tickApprox() const;
    std::uint64_t executedApprox() const;

    /** The round barrier (watchdog stall probes); staged path only. */
    const WindowBarrier &barrier() const { return barrier_; }

    /**
     * The whole run's statistics: the per-shard groups merged into an
     * aggregate view (rebuilt on each call).
     */
    StatGroup &stats();

    Tick window() const { return window_; }

    /** True when posts dispatch straight into the owner queue (S == 1). */
    bool directDispatch() const { return parts_.size() == 1; }

    /**
     * Attach (or detach, nullptr) a metrics sampler. Samples follow its
     * due ticks: each is taken before the first event at or after the
     * due tick, with every earlier event executed and the merged
     * statistics quiescent. The staged path takes it in planWindow()'s
     * serial completion phase (every shard parked at the barrier) and
     * never lets a window straddle a due tick; direct dispatch runs up
     * to due - 1 and samples there. The sample ticks are therefore
     * shard-count-invariant. The sampler must outlive the run.
     */
    void setMetricsSampler(obs::MetricsSampler *sampler)
    {
        sampler_ = sampler;
    }

    /** Host-side execution profile of the run so far (all shards). */
    obs::EngineProfile profile() const;

  private:
    /** One buffered cross-shard event. */
    struct PostItem
    {
        Tick when = 0;
        std::uint64_t chan = 0;
        EventQueue::Callback cb;
    };

    /** Mailbox lane capacity (items) before spilling to the vector. */
    static constexpr std::size_t laneCapacity = 256;

    /**
     * One single-writer mailbox lane. The ring is the wait-free common
     * case; `spill` absorbs overflow of a message-storm window (written
     * by the producer, read only at the barrier with both sides
     * quiescent). Once a round spills, it keeps spilling so ring-then-
     * spill drain order stays FIFO.
     */
    struct Lane
    {
        SpscRing<PostItem, laneCapacity> ring;
        std::vector<PostItem> spill;
        std::uint64_t spilled = 0; //!< lifetime spill count (profiling)

        /**
         * @param force_spill bypass the ring (the spill-storm fault).
         * @return true when the item spilled past the ring.
         */
        bool
        push(PostItem &&item, bool force_spill = false)
        {
            if (force_spill || !spill.empty() ||
                !ring.tryPush(std::move(item))) {
                spill.push_back(std::move(item));
                ++spilled;
                return true;
            }
            return false;
        }
    };

    struct Partition
    {
        explicit Partition(std::uint64_t cal_overflow_period)
            : eq(cal_overflow_period)
        {
        }

        EventQueue eq;
        StatGroup stats;
        /** Outgoing mail, one lane per destination shard. */
        std::vector<Lane> out;
        /** Earliest pending tick, published for window planning. */
        std::atomic<Tick> nextTick{tickNever};
        /** Wall ns this shard's thread spent in barrier waits. Written
         *  only by the owning thread; read after the run joins. */
        std::uint64_t barrierWaitNs = 0;
    };

    /** now() of the queue the calling thread executes (post()'s cause). */
    Tick postingNow() const;
    /** post() on the staged path: into the SPSC lane for @p dst. */
    void postStaged(NodeId dst, Tick when, std::uint64_t chan,
                    EventQueue::Callback &&cb);
    void workerLoop(unsigned shard, Tick limit);
    void applyInbox(unsigned shard);
    void planWindow(Tick limit);
    /** Sample metrics at tick @p w when one is due. */
    void sampleAt(Tick w);
    /** The S == 1 engine: runUntil() on the one queue. */
    Tick runDirect(Tick limit);

    std::vector<std::unique_ptr<Partition>> parts_;
    std::vector<unsigned> shard_; //!< node -> shard
    Tick window_;

    obs::Tracer tracer_;
    guard::Checks checks_;
    guard::FaultPlan faults_;

    WindowBarrier barrier_;
    std::atomic<Tick> windowStart_{0};
    std::atomic<Tick> windowEnd_{0};
    std::atomic<bool> stop_{false};

    /** Staged round accounting; written only in planWindow()'s serial
     *  phase, so both read 0 under direct dispatch. */
    std::uint64_t rounds_ = 0;
    std::uint64_t windowTicksSum_ = 0;

    obs::MetricsSampler *sampler_ = nullptr;

    std::mutex errorMu_;
    std::exception_ptr error_;

    mutable std::mutex abortMu_;
    std::string abortReason_;

    StatGroup merged_;
};

} // namespace ltp

#endif // LTP_SIM_PAR_PARALLEL_SCHEDULER_HH
