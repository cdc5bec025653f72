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

#include "net/ni_interconnect.hh"

namespace ltp
{

/**
 * The paper's interconnect. Local (src == dst) messages bypass the
 * network entirely and are delivered after a single 1-cycle delay.
 */
class Network : public NiInterconnect
{
  public:
    Network(ParallelScheduler &sched, NodeId num_nodes,
            NetworkParams params)
        : NiInterconnect(sched, num_nodes, params)
    {
    }

    void send(Message msg) override;

    TopologyKind topology() const override
    {
        return TopologyKind::PointToPoint;
    }
};

} // namespace ltp

#endif // LTP_NET_NETWORK_HH
