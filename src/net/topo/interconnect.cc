#include "net/topo/interconnect.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "net/network.hh"
#include "net/topo/routed_network.hh"

namespace ltp
{

void
validateNetworkParams(const NetworkParams &params, NodeId num_nodes)
{
    if (num_nodes == 0)
        throw std::invalid_argument("interconnect needs at least one node");
    if (params.linkBandwidth == 0)
        throw std::invalid_argument("linkBandwidth must be > 0 bytes/cycle");
    if (params.headerBytes == 0)
        throw std::invalid_argument("headerBytes must be > 0");

    if (params.topology == TopologyKind::PointToPoint)
        return;

    if ((params.topology == TopologyKind::Mesh2D ||
         params.topology == TopologyKind::Torus2D) &&
        params.meshWidth != 0 &&
        (params.meshWidth > num_nodes ||
         num_nodes % params.meshWidth != 0)) {
        throw std::invalid_argument(
            "meshWidth " + std::to_string(params.meshWidth) +
            " does not divide the node count " + std::to_string(num_nodes) +
            " (use 0 for the most-square factorization)");
    }

    // Escape VCs carry deadlock-free dimension-order traffic: one on a
    // mesh, two on wrap topologies (the dateline scheme). Adaptive and
    // oblivious routing additionally need at least one adaptive VC.
    bool wraps = params.topology == TopologyKind::Torus2D ||
                 params.topology == TopologyKind::Ring;
    unsigned escape = wraps ? 2u : 1u;
    unsigned needed =
        escape +
        (params.routing == RoutingPolicy::DimensionOrder ? 0u : 1u);
    if (params.vcCount != 0 && params.vcCount < needed) {
        throw std::invalid_argument(
            "vcCount " + std::to_string(params.vcCount) + " < " +
            std::to_string(needed) + " required for " +
            topologyKindName(params.topology) + " with " +
            routingPolicyName(params.routing) +
            " routing (use 0 for the automatic layout)");
    }
}

Tick
oneHopLatency(const NetworkParams &params)
{
    if (params.topology == TopologyKind::PointToPoint) {
        // Delivery is scheduled egress-serialization + flight ahead of
        // the send event.
        return params.flightLatency +
               std::min(params.controlOccupancy, params.dataOccupancy);
    }
    // Guard the division; validateNetworkParams rejects a zero
    // bandwidth with the descriptive error.
    unsigned bw = std::max(params.linkBandwidth, 1u);
    Tick ser_min = (params.headerBytes + bw - 1) / bw;
    return ser_min + params.hopLatency + params.routerLatency;
}

NetLookahead
networkLookahead(const NetworkParams &params)
{
    NetLookahead la;
    la.ticks = oneHopLatency(params);
    // Credit returns travel one wire hop back upstream.
    if (params.topology != TopologyKind::PointToPoint && params.vcDepth > 0)
        la.ticks = std::min(la.ticks, params.hopLatency);
    return la;
}

Interconnect::Interconnect(ParallelScheduler &sched, NodeId num_nodes,
                           NetworkParams params)
    : params_(params),
      sched_(sched),
      niEgressFree_(num_nodes, 0),
      ingressQueue_(num_nodes),
      ingressBusy_(num_nodes, 0),
      sinks_(num_nodes)
{
    unsigned shards = sched_.numShards();
    msgsSent_.reserve(shards);
    dataMsgs_.reserve(shards);
    endToEndLatency_.reserve(shards);
    latencyHist_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
        StatGroup &stats = sched_.shardStats(s);
        msgsSent_.push_back(&stats.counter("net.msgs"));
        dataMsgs_.push_back(&stats.counter("net.dataMsgs"));
        endToEndLatency_.push_back(&stats.average("net.endToEndLatency"));
        latencyHist_.push_back(
            &stats.histogram("net.endToEndLatency", 32.0, 256));
    }
}

void
Interconnect::setSink(NodeId node, Sink sink)
{
    assert(node < sinks_.size());
    sinks_[node] = std::move(sink);
}

bool
Interconnect::injectLocalOrCount(Message &msg)
{
    assert(msg.src < sinks_.size() && msg.dst < sinks_.size());
    EventQueue &eq = q(msg.src);
    msg.injectedAt = eq.now();
    sched_.tracer().instant(obs::Cat::Message, msg.src, "inject", eq.now(),
                            msg.dst, std::uint64_t(msg.type));
    unsigned shard = sched_.shardOf(msg.src);
    msgsSent_[shard]->inc();
    if (carriesData(msg.type))
        dataMsgs_[shard]->inc();
    if (sched_.checks().on(obs::Cat::Message))
        sched_.checks().countInject();

    if (msg.src != msg.dst)
        return false;
    // Local delivery: no NI serialization, a nominal 1-cycle hop.
    auto local = [this, msg] { deliver(msg); };
    static_assert(SmallFunction::fitsInline<decltype(local)>());
    eq.scheduleIn(1, local);
    return true;
}

Tick
Interconnect::egressDone(const Message &msg)
{
    Tick occ = niOccupancy(msg);
    Tick start = std::max(q(msg.src).now(), niEgressFree_[msg.src]);
    niEgressFree_[msg.src] = start + occ;
    return start + occ;
}

void
Interconnect::arriveAtIngress(const Message &msg)
{
    if (ingressBusy_[msg.dst]) {
        ingressQueue_[msg.dst].push_back(msg);
        return;
    }
    // Idle NI: service starts immediately — skip the queue round-trip.
    ingressBusy_[msg.dst] = 1;
    serveIngress(msg);
}

void
Interconnect::serveIngress(const Message &msg)
{
    // The busy flag serializes the NI: this event runs at (or, when the
    // NI went idle, after) the previous message's finish tick, so the
    // next service always starts now.
    auto served = [this, msg] {
        deliver(msg);
        std::deque<Message> &queue = ingressQueue_[msg.dst];
        if (queue.empty()) {
            ingressBusy_[msg.dst] = 0;
            return;
        }
        Message next = queue.front();
        queue.pop_front();
        serveIngress(next);
    };
    static_assert(SmallFunction::fitsInline<decltype(served)>());
    q(msg.dst).scheduleIn(niOccupancy(msg), served);
}

void
Interconnect::deliver(const Message &msg)
{
    Tick lat = q(msg.dst).now() - msg.injectedAt;
    // The end-to-end message-lifecycle span, named by type, on the
    // destination node's track: inject -> (NI, flight, hops) -> deliver.
    sched_.tracer().span(obs::Cat::Message, msg.dst, msgTypeName(msg.type),
                         msg.injectedAt, q(msg.dst).now(), msg.src, msg.dst);
    unsigned shard = sched_.shardOf(msg.dst);
    endToEndLatency_[shard]->sample(double(lat));
    latencyHist_[shard]->sample(double(lat));
    if (sched_.checks().on(obs::Cat::Message))
        sched_.checks().countDeliver(msg.src, msg.dst, msg.netSeq,
                                     q(msg.dst).now());
    sinks_[msg.dst](msg);
}

std::unique_ptr<Interconnect>
makeInterconnect(ParallelScheduler &sched, NodeId num_nodes,
                 NetworkParams params)
{
    validateNetworkParams(params, num_nodes);
    if (params.topology == TopologyKind::PointToPoint)
        return std::make_unique<Network>(sched, num_nodes, params);
    return std::make_unique<RoutedNetwork>(sched, num_nodes, params);
}

} // namespace ltp
