#include "net/topo/interconnect.hh"

#include <algorithm>
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
