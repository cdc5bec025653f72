/**
 * @file
 * Directory-side sharing predictor (extension).
 *
 * Section 2 of the paper: "self-invalidation can trigger sharing
 * prediction and speculation... In the limit, self-invalidation
 * together with accurate sharing prediction can help eliminate remote
 * access latency by always forwarding a memory block to a subsequent
 * sharer prior to an access." This module supplies the "subsequent
 * sharer" half (a miniature of Lai & Falsafi's ISCA'99 memory sharing
 * predictor, the paper's reference [8]): per block, it learns the
 * requester-succession pattern (A's copy is usually consumed by B) with
 * 2-bit confidence, and the directory forwards self-invalidated data to
 * the predicted consumer.
 */

#ifndef LTP_PROTO_SHARING_PREDICTOR_HH
#define LTP_PROTO_SHARING_PREDICTOR_HH

#include <optional>

#include "predictor/signature.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace ltp
{

/** Learns, per block, who requests next after each node's turn. */
class SharingPredictor
{
  public:
    explicit SharingPredictor(unsigned conf_threshold = 2)
        : threshold_(conf_threshold)
    {
    }

    /** A request for @p blk by @p requester reached the directory. */
    void
    observeRequest(Addr blk, NodeId requester)
    {
        BlockState &b = blocks_[blk];
        if (b.lastRequester != invalidNode &&
            b.lastRequester != requester) {
            Transition &t = b.next[b.lastRequester];
            if (t.target == requester) {
                t.conf.strengthen();
            } else if (t.conf.value() == 0 ||
                       t.target == invalidNode) {
                t.target = requester;
                t.conf = ConfidenceCounter(1);
            } else {
                t.conf.weaken();
            }
        }
        b.lastRequester = requester;
    }

    /**
     * Predict which node consumes @p blk after @p current's copy dies.
     * Returns nullopt when the pattern is unknown or low-confidence.
     */
    std::optional<NodeId>
    predictNext(Addr blk, NodeId current) const
    {
        const BlockState *b = blocks_.find(blk);
        if (!b)
            return std::nullopt;
        const Transition *t = b->next.find(current);
        if (!t)
            return std::nullopt;
        if (t->target == invalidNode || t->target == current ||
            !t->conf.atLeast(threshold_)) {
            return std::nullopt;
        }
        return t->target;
    }

    std::size_t trackedBlocks() const { return blocks_.size(); }

  private:
    struct Transition
    {
        NodeId target = invalidNode;
        ConfidenceCounter conf{0};
    };

    struct BlockState
    {
        NodeId lastRequester = invalidNode;
        FlatMap<NodeId, Transition> next;
    };

    unsigned threshold_;
    FlatMap<Addr, BlockState> blocks_;
};

} // namespace ltp

#endif // LTP_PROTO_SHARING_PREDICTOR_HH
