/**
 * @file
 * Runtime protocol invariant checkers (LTP_CHECK).
 *
 * The category vocabulary is the obs taxonomy (obs/categories.hh) —
 * "turn on the directory" means the same word to LTP_TRACE and
 * LTP_CHECK:
 *
 *   message    message conservation (injected == delivered at quiesce)
 *              and pairwise-FIFO delivery order (per (src, dst) netSeq
 *              monotonicity through the reorder buffer; routed only)
 *   link       per-link VC credit conservation at quiesce (every credit
 *              returned, no stranded queue/reorder entries) plus the
 *              on-the-fly over-return check at each credit arrival
 *   directory  directory -> cache cross-check at quiesce: every sharer
 *              bit maps to a Shared copy, every owner to an Exclusive
 *              copy, no entry left busy
 *   cache      cache -> directory cross-check at quiesce: every
 *              resident line is backed by the home's bookkeeping
 *
 * Checkers are observer-only until they fire: counters live OUTSIDE
 * StatGroup (the obs::EngineProfile precedent), so stats dumps stay
 * byte-identical whether checks are armed or not. A violated invariant
 * throws CheckFailure with full context — the run fails loudly at the
 * first corrupt state instead of three goldens later.
 *
 * One Checks object guards one run: the engine (ParallelScheduler)
 * owns it, built from the run's check mask, and components reach it
 * through the scheduler. A category left off costs one load and a
 * branch per hook. Hot-path counters are relaxed atomics: shards count
 * injections and deliveries concurrently, and the totals are only
 * compared at quiesce, after the engine joined its workers.
 */

#ifndef LTP_SIM_GUARD_CHECKERS_HH
#define LTP_SIM_GUARD_CHECKERS_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/categories.hh"
#include "sim/types.hh"

namespace ltp
{
namespace guard
{

/** A violated protocol/engine invariant; what() carries full context. */
class CheckFailure : public std::runtime_error
{
  public:
    explicit CheckFailure(const std::string &what)
        : std::runtime_error("LTP_CHECK: " + what)
    {
    }
};

/** One run's invariant-checker switchboard and counters. */
class Checks
{
  public:
    /**
     * The checkers in @p mask (obs category bits) for a run over
     * @p num_nodes nodes. @p pair_fifo adds the per-pair delivery-order
     * check (routed topologies only: the p2p model does not stamp
     * netSeq).
     */
    Checks(std::uint32_t mask, NodeId num_nodes, bool pair_fifo);

    Checks(const Checks &) = delete;
    Checks &operator=(const Checks &) = delete;

    /** Fast path: is category @p c checked? */
    bool on(obs::Cat c) const { return mask_ & obs::catBit(c); }

    /** Hot hook: a message entered the network (any topology). */
    void
    countInject()
    {
        injected_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Hot hook: a message reached its destination sink. Also enforces
     * pairwise FIFO when enabled: the routed network stamps netSeq per
     * (src, dst) from 0, so delivery order on a pair must be exactly
     * 0, 1, 2, ... — anything else means the ingress reorder buffer
     * let a message overtake. Runs on dst's shard; each pair slot has
     * a single writer, so the seq table needs no synchronization.
     */
    void countDeliver(NodeId src, NodeId dst, std::uint32_t net_seq,
                      Tick now);

    std::uint64_t
    injected() const
    {
        return injected_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    delivered() const
    {
        return delivered_.load(std::memory_order_relaxed);
    }

    /**
     * Quiesce check: with the run complete every injected message must
     * have been delivered (in-flight == 0). Throws CheckFailure naming
     * both counts otherwise.
     */
    void checkMessageConservation() const;

  private:
    std::uint32_t mask_ = 0;
    NodeId numNodes_ = 0;
    bool pairFifo_ = false;
    std::atomic<std::uint64_t> injected_{0};
    std::atomic<std::uint64_t> delivered_{0};
    /** Next expected netSeq per (src, dst); single writer (dst shard). */
    std::vector<std::uint32_t> nextSeq_;
};

} // namespace guard
} // namespace ltp

#endif // LTP_SIM_GUARD_CHECKERS_HH
