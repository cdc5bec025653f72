/**
 * @file
 * The interconnect every DSM component talks to, plus the
 * timing/topology knobs shared by all models.
 *
 * Interconnect holds what every model shares: injection accounting, the
 * local-delivery bypass, the egress/ingress network-interface (NI) FIFO
 * servers, and end-to-end latency sampling (Average plus Histogram, both
 * named `net.endToEndLatency`). So the NI contention and latency
 * accounting of all models are identical by construction. A model
 * supplies only send(), the path from the egress NI to the ingress NI:
 *  - Network (net/network.hh): the paper's point-to-point model —
 *    constant flight latency, contention only at the NIs. This is the
 *    default; it keeps every figure benchmark bit-identical.
 *  - RoutedNetwork (net/topo/routed_network.hh): topology-aware
 *    mesh/torus/ring where every router/link is a FIFO server, so
 *    latency depends on hop count and congestion.
 *
 * Messages travel by value: each hop's event captures the 56-byte
 * Message, and every capture fits SmallFunction's inline buffer (a
 * static_assert of SmallFunction::fitsInline at each capture site keeps
 * it there), so a hop's event costs no allocation.
 *
 * Sharding: every piece of NI state is owned by one node — the egress
 * server by the sender, the ingress queue and reorder state by the
 * receiver — and every event here runs on the owning node's queue
 * (ParallelScheduler::queueFor). Statistics are per-shard handles
 * merged after the run. The only cross-node step, handing a message
 * from the sender's fabric to the receiver, is the model's post() call.
 *
 * Every model preserves the pairwise (src, dst) FIFO delivery
 * invariant the coherence protocol relies on.
 */

#ifndef LTP_NET_TOPO_INTERCONNECT_HH
#define LTP_NET_TOPO_INTERCONNECT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/message.hh"
#include "net/topo/topology.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ltp
{

/** Timing and topology knobs for the interconnect. */
struct NetworkParams
{
    Tick flightLatency = 80;   //!< node-to-node wire latency (p2p only)
    Tick controlOccupancy = 4; //!< NI serialization of a header-only msg
    Tick dataOccupancy = 12;   //!< NI serialization of a data-carrying msg

    // Topology-aware knobs (ignored by the point-to-point model).
    // Calibrated so one unloaded routed hop costs a control message
    //   headerBytes / linkBandwidth + hopLatency + routerLatency
    //     = 16/4 + 68 + 8 = 80 cycles,
    // exactly the paper's point-to-point flight latency: adjacent-node
    // control traffic times identically under p2p and routed models, and
    // topology runs differ only through hop count and congestion.
    TopologyKind topology = TopologyKind::PointToPoint;
    unsigned meshWidth = 0;  //!< X extent of mesh/torus; 0 = most-square
    Tick hopLatency = 68;    //!< per-hop wire flight (cycles)
    Tick routerLatency = 8;  //!< per-hop routing/pipeline delay (cycles)

    // Link bandwidth in bytes/cycle: a message serializes onto a link for
    // ceil(messageBytes / linkBandwidth) cycles, where messageBytes is
    // headerBytes plus blockBytes when the message carries a cache block.
    unsigned linkBandwidth = 4; //!< link bandwidth (bytes/cycle)
    unsigned headerBytes = 16;  //!< wire size of a header-only message
    unsigned blockBytes = 32;   //!< payload of a data-carrying message

    // Router microarchitecture. vcDepth 0 models unbounded input buffers
    // (no backpressure) and, with DimensionOrder routing, reproduces the
    // original per-link FIFO model tick for tick. A non-zero depth turns
    // on credit-based backpressure: a message only starts serializing
    // when the downstream (link, VC) input buffer has a free slot, so
    // congestion stalls senders instead of growing queues without bound.
    RoutingPolicy routing = RoutingPolicy::DimensionOrder;
    unsigned vcCount = 0; //!< virtual channels per link; 0 = auto
                          //!< (escape VCs + 1 adaptive VC when needed)
    unsigned vcDepth = 0; //!< input-buffer slots per (link, VC); 0 = inf
};

/**
 * Validate @p params for a system of @p num_nodes, throwing
 * std::invalid_argument with a descriptive message on bad combinations
 * (non-dividing meshWidth, zero link bandwidth, too few VCs for the
 * topology/routing). makeInterconnect() calls this; CLIs may call it
 * early to fail before a long run starts.
 */
void validateNetworkParams(const NetworkParams &params, NodeId num_nodes);

/**
 * The minimum latency of one unloaded cross-node message: egress NI
 * serialization + flight on the point-to-point model (84 cycles with
 * Table 1 numbers), link serialization + wire + router pipeline on a
 * routed one (80). Directory verification verdicts travel this far.
 */
Tick oneHopLatency(const NetworkParams &params);

/**
 * The interconnect's guaranteed minimum cross-node latency — the
 * conservative lookahead the engine's windows are built on.
 */
struct NetLookahead
{
    /** Minimum ticks between any cross-node cause and its effect. */
    Tick ticks = 0;
};

/**
 * Export the lookahead of the model @p params selects: oneHopLatency(),
 * or the wire-delayed credit return (hopLatency) when a finite vcDepth
 * bounds the routed input buffers. Every routing policy shards:
 * oblivious routing's coin flips are counter-based pure hashes of
 * (src, dst, netSeq, router), not a shared stream.
 */
NetLookahead networkLookahead(const NetworkParams &params);

/**
 * Message transport between DSM nodes.
 *
 * Contract (all models):
 *  - send() never delivers synchronously; the sink runs in a later event.
 *  - Local (src == dst) messages bypass the network and arrive after a
 *    nominal 1-cycle delay.
 *  - Messages of one (src, dst) pair are delivered in send order.
 */
class Interconnect
{
  public:
    using Sink = std::function<void(const Message &)>;

    virtual ~Interconnect() = default;
    // Scheduled events hold `this`.
    Interconnect(const Interconnect &) = delete;
    Interconnect &operator=(const Interconnect &) = delete;

    /** Register the message consumer for @p node. */
    void setSink(NodeId node, Sink sink);

    /** Inject @p msg; it will be delivered to msg.dst's sink later. */
    virtual void send(Message msg) = 0;

    NodeId numNodes() const { return NodeId(sinks_.size()); }
    TopologyKind topology() const { return params_.topology; }
    const NetworkParams &params() const { return params_; }

  protected:
    Interconnect(ParallelScheduler &sched, NodeId num_nodes,
                 NetworkParams params);

    /** The queue @p node's events run on. */
    EventQueue &q(NodeId node) { return sched_.queueFor(node); }

    ParallelScheduler &sched() { return sched_; }

    Tick niOccupancy(const Message &m) const
    {
        return carriesData(m.type) ? params_.dataOccupancy
                                   : params_.controlOccupancy;
    }

    /**
     * Stamp and count an injected message; when src == dst, schedule the
     * 1-cycle local-delivery bypass and return true (nothing further for
     * the model to do).
     */
    bool injectLocalOrCount(Message &msg);

    /** Serialize @p msg through its egress NI; returns the clear tick. */
    Tick egressDone(const Message &msg);

    /** Hand @p msg (arriving from the model's fabric) to dst's NI.
     *  Runs on the destination node's shard. */
    void arriveAtIngress(const Message &msg);

    /** Sample latency stats and hand the message to its sink. */
    virtual void deliver(const Message &msg);

    NetworkParams params_;

  private:
    /** Schedule @p msg's service at its ingress NI (ends occupancy from
     *  now). */
    void serveIngress(const Message &msg);

    ParallelScheduler &sched_;

    // Shared stat names, one handle per shard (merged after the run).
    std::vector<Counter *> msgsSent_;
    std::vector<Counter *> dataMsgs_;
    std::vector<Average *> endToEndLatency_;
    std::vector<Histogram *> latencyHist_;

    /** Earliest tick each egress NI is free. */
    std::vector<Tick> niEgressFree_;
    /** Per-ingress-NI FIFO of arrived-but-undelivered messages. */
    std::vector<std::deque<Message>> ingressQueue_;
    /** Nonzero while an ingress NI drain event is scheduled. One byte
     *  per node: nodes on different shards write their flags
     *  concurrently, and vector<bool> would pack them into shared words. */
    std::vector<std::uint8_t> ingressBusy_;
    std::vector<Sink> sinks_;
};

/**
 * Build the interconnect selected by @p params.topology on @p sched.
 * Standalone drivers and tests pass a 1-shard scheduler.
 */
std::unique_ptr<Interconnect> makeInterconnect(ParallelScheduler &sched,
                                               NodeId num_nodes,
                                               NetworkParams params);

} // namespace ltp

#endif // LTP_NET_TOPO_INTERCONNECT_HH
