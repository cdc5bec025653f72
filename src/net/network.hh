/**
 * @file
 * Point-to-point interconnect with constant flight latency and contention
 * modeled at the network interfaces (exactly the model in Table 1 /
 * Section 5 of the paper). This is the default Interconnect
 * implementation; topology-aware models live in net/topo/.
 *
 * Each node owns an egress NI and an ingress NI. An NI is a FIFO server:
 * it occupies `controlOccupancy` or `dataOccupancy` cycles per message.
 * Flight time between any pair of nodes is the constant `flightLatency`.
 * Messages between a given (src, dst) pair are delivered in send order
 * (the protocol relies on pairwise FIFO channels).
 */

#ifndef LTP_NET_NETWORK_HH
#define LTP_NET_NETWORK_HH

#include <cassert>

#include "net/topo/interconnect.hh"

namespace ltp
{

/**
 * The paper's interconnect. Local (src == dst) messages bypass the
 * network entirely and are delivered after a single 1-cycle delay.
 */
class Network : public Interconnect
{
  public:
    Network(ParallelScheduler &sched, NodeId num_nodes,
            NetworkParams params)
        : Interconnect(sched, num_nodes, params)
    {
        assert(params_.topology == TopologyKind::PointToPoint &&
               "use RoutedNetwork for the routed topologies");
    }

    void send(Message msg) override;
};

} // namespace ltp

#endif // LTP_NET_NETWORK_HH
