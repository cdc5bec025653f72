/**
 * @file
 * Topology-aware interconnect: mesh / torus / ring with a virtual-channel
 * router pipeline, credit-based backpressure, and pluggable routing.
 *
 * A message's life:
 *
 *   egress NI (FIFO, controlOccupancy/dataOccupancy)
 *     -> [ VC allocation + link serialization (messageBytes /
 *          linkBandwidth cycles) -> wire (hopLatency) -> router
 *          (routerLatency) ] x hops
 *     -> ingress reorder buffer -> ingress NI -> sink
 *
 * Each directed link serializes one message at a time; waiting messages
 * sit in the upstream router's input buffers, modeled per (link, VC).
 * With a finite vcDepth a message only starts serializing when the
 * downstream (link, VC) buffer has a free slot (a credit), so congestion
 * propagates backpressure upstream instead of growing queues without
 * bound; the credit travels back over the wire (hopLatency) when the
 * slot frees.
 *
 * Virtual channels double as the deadlock-avoidance mechanism:
 *  - escape VCs (VC0, plus VC1 on wrap topologies under the dateline
 *    rule) carry dimension-order traffic, which is deadlock-free;
 *  - adaptive/oblivious traffic rides the remaining VCs and, when its
 *    chosen port is credit-blocked while the link sits idle, falls back
 *    onto the escape path (Duato-style), so forward progress never
 *    depends on a cyclic buffer dependency.
 *
 * Adaptive and oblivious routing can reorder a (src, dst) pair's
 * messages in flight; a per-pair sequence number stamped at injection
 * and an ingress reorder buffer restore the pairwise FIFO delivery
 * order the coherence protocol relies on. Dimension-order routing never
 * reorders, so the reorder buffer is a pure pass-through there — with
 * the default unbounded buffers that configuration is tick-for-tick
 * identical to the original per-link FIFO model.
 *
 * Per-link utilization is exported as `net.linkBusy.<from>-<to>` (busy
 * cycles) and `net.linkMsgs.<from>-<to>`; `net.escapeReroutes` counts
 * adaptive messages that fell back to the escape path and
 * `net.reorderHeld` messages parked in the ingress reorder buffer. The
 * NI model and latency statistics are shared with the point-to-point
 * network (see net/topo/interconnect.hh).
 */

#ifndef LTP_NET_TOPO_ROUTED_NETWORK_HH
#define LTP_NET_TOPO_ROUTED_NETWORK_HH

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "net/topo/interconnect.hh"
#include "net/topo/topology.hh"
#include "sim/rng.hh"

namespace ltp
{

/** Mesh/torus/ring interconnect with VC routers and credited links. */
class RoutedNetwork : public Interconnect
{
  public:
    RoutedNetwork(ParallelScheduler &sched, NodeId num_nodes,
                  NetworkParams params);

    void send(Message msg) override;

    const TopologyGeometry &geometry() const { return geom_; }
    std::size_t numLinks() const { return links_.size(); }

    /** Total virtual channels per link (escape + adaptive). */
    unsigned numVcs() const { return numVcs_; }
    /** Leading VCs reserved for deadlock-free dimension-order traffic. */
    unsigned numEscapeVcs() const { return escapeVcs_; }
    /** True when vcDepth is finite, i.e. credits gate transmission. */
    bool bounded() const { return params_.vcDepth > 0; }

    /**
     * Free downstream input-buffer slots of (link @p l, VC @p vc); equals
     * vcDepth whenever the buffer is idle. @pre bounded().
     */
    unsigned creditsAvailable(std::size_t l, unsigned vc) const
    {
        return links_[l].credits[vc];
    }

    /** Wire size of @p m: headerBytes (+ blockBytes when data). */
    unsigned messageBytes(const Message &m) const
    {
        return params_.headerBytes +
               (carriesData(m.type) ? params_.blockBytes : 0);
    }

    /** Link serialization delay: ceil(messageBytes / linkBandwidth). */
    Tick serializationTicks(const Message &m) const
    {
        return (messageBytes(m) + params_.linkBandwidth - 1) /
               params_.linkBandwidth;
    }

    /**
     * LTP_CHECK=link quiesce invariant: with the run complete, every
     * link must be drained (no waiting messages, no parked reorder
     * entries) and every credit returned (credits == vcDepth on every
     * (link, VC) when bounded). Throws guard::CheckFailure naming the
     * offending link otherwise. Call only after runUntil() returned
     * with the simulation quiescent.
     */
    void guardCheckQuiesce() const;

  private:
    /** A message waiting in an input buffer for one output link. */
    struct Entry
    {
        Message msg;
        std::int32_t inLink = -1; //!< upstream link whose buffer holds the
                                  //!< message (-1: injection queue)
        std::uint8_t vc = 0;      //!< VC requested on this output link
        std::uint8_t inVc = 0;
    };
    static_assert(sizeof(Entry) == 64,
                  "a queue entry is its Message plus 8 bytes of routing");

    /**
     * One directed physical channel between adjacent routers.
     *
     * Serialization is modeled with a coalesced "link engine" instead
     * of a per-message link-free event: `freeAt` records when the
     * current serialization ends, and a single drain event is armed at
     * that tick only while traffic is actually waiting (`armed`). An
     * uncongested grant therefore schedules no bookkeeping event at
     * all — the arrival post is the only event per hop.
     */
    struct Link
    {
        NodeId from = invalidNode;
        NodeId to = invalidNode;
        std::uint8_t dim = 0; //!< 0 = X, 1 = Y
        bool wrap = false;    //!< crosses the torus/ring dateline
        std::deque<Entry> q;  //!< waiting messages, request order
        Tick freeAt = 0;      //!< serializing until this tick
        bool armed = false;   //!< drain event scheduled at freeAt
        bool draining = false; //!< re-entrancy guard for drainLink()
        /** Free slots in the downstream input buffer, per VC. */
        std::vector<unsigned> credits;
        Counter *msgs = nullptr;
        Counter *busyCycles = nullptr;
        /** Grants so far: the link-stall fault's per-site counter. */
        std::uint64_t faultGrants = 0;
    };

    /** Per-(src, dst) ingress reordering state. The sorted map keys
     *  netSeq -> parked message (quiesce reporting reads the smallest
     *  parked sequence off begin()). */
    struct PairState
    {
        std::uint32_t nextSeq = 0;
        std::map<std::uint32_t, Message> pending;
    };

    int linkIndex(NodeId from, NodeId to) const;
    /** linkIndex() for a hop the route computed: must be physical. */
    std::size_t routeLink(NodeId from, NodeId to) const
    {
        int l = linkIndex(from, to);
        assert(l >= 0 && "route must follow physical links");
        return std::size_t(l);
    }
    std::size_t pairKey(NodeId src, NodeId dst) const
    {
        return std::size_t(src) * numNodes() + dst;
    }

    bool isAdaptiveVc(unsigned vc) const { return vc >= escapeVcs_; }
    bool hasCredit(const Link &link, unsigned vc) const
    {
        return !bounded() || link.credits[vc] > 0;
    }

    /** Escape VC of @p msg for the hop @p at -> @p next (dateline rule). */
    std::uint8_t escapeVc(NodeId at, NodeId next, const Message &msg) const;
    /** Adaptive VC with the most free downstream slots on link @p l. */
    std::uint8_t adaptiveVc(const Link &link) const;
    /** Congestion score of the output link @p l (queue + buffer fill). */
    std::size_t congestion(std::size_t l);

    /** True when link @p l is not serializing at the current tick. */
    bool
    linkIdle(const Link &link)
    {
        return q(link.from).now() >= link.freeAt;
    }

    /** Route @p msg (now at router @p at) onto its next output link. */
    void forward(NodeId at, const Message &msg, std::int32_t in_link,
                 std::uint8_t in_vc);
    /** Queue @p e for link @p l; an uncontended hop is granted at once. */
    void enqueue(std::size_t l, Entry e);
    /** Arbitrate now if the link is idle, else arm the link engine. */
    void pump(std::size_t l);
    /** Schedule the coalesced drain event at freeAt (once). */
    void armEngine(std::size_t l);
    /**
     * Batched arbitration: retire the link's entire provably-ordered
     * eligible queue in one event — repeated head grants at advancing
     * virtual start times — stopping at the first decision (a skipped
     * head, an exhausted credit view, an escape candidate) that a real
     * drain event at freeAt must re-make with fresh credit state.
     * @pre link is idle.
     */
    void drainLink(std::size_t l);
    /** Grant @p e the wire at tick @p start (>= now within a batch). */
    void grantAt(std::size_t l, Entry &e, Tick start);
    /** The wire-delayed credit for one freed (link, VC) buffer slot,
     *  departing at tick @p from (the grant's virtual start). */
    void scheduleCreditReturn(std::size_t l, std::uint8_t vc, Tick from);
    void arriveAtRouter(std::uint32_t l, std::uint8_t vc,
                        const Message &msg);
    /** Pairwise-FIFO restoration in front of the ingress NI. */
    void reorderDeliver(const Message &msg);

    /** Adds the route-length sample to the shared delivery stats. */
    void deliver(const Message &msg) override;

    TopologyGeometry geom_;
    unsigned numVcs_ = 1;
    unsigned escapeVcs_ = 1;

    std::vector<Link> links_;
    /** Dense (from * n + to) -> link index map; -1 when not adjacent. */
    std::vector<int> linkIdx_;

    /** Per-(src, dst) next injection sequence number. */
    std::vector<std::uint32_t> sendSeq_;
    /** Per-(src, dst) ingress reorder buffers. */
    std::vector<PairState> pairs_;

    /** Oblivious-routing coin flip for @p msg leaving router @p at: a
     *  pure counterHash of (seed, src, dst, netSeq, at). Counter-based
     *  per-(src, dst) streams — no shared RNG state, no consumption
     *  order — so oblivious routing shards like any other policy and
     *  stays bit-identical for every simThreads value. */
    unsigned obliviousPick(NodeId at, const Message &msg,
                           unsigned n) const;

    // Shared stat names, one handle per shard (merged after the run).
    // Router-side stats index by the link owner's shard, delivery-side
    // stats by the destination's shard.
    std::vector<Counter *> hops_;
    std::vector<Average *> hopsPerMsg_;
    std::vector<Counter *> escapeReroutes_;
    std::vector<Counter *> reorderHeld_;
};

} // namespace ltp

#endif // LTP_NET_TOPO_ROUTED_NETWORK_HH
