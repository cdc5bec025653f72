/**
 * @file
 * Shared network-interface machinery for Interconnect implementations:
 * injection accounting, the local-delivery bypass, the egress/ingress
 * NI FIFO servers, and end-to-end latency sampling (Average plus
 * Histogram, both named `net.endToEndLatency`).
 *
 * Subclasses only model what happens between the egress NI and the
 * ingress NI — a constant flight (Network) or a routed walk over FIFO
 * links (RoutedNetwork) — which keeps the NI contention and latency
 * accounting of all models identical by construction.
 *
 * Sharding: every piece of NI state is owned by one node — the egress
 * server by the sender, the ingress queue and reorder state by the
 * receiver — and every event here runs on the owning node's queue
 * (ParallelScheduler::queueFor). Statistics are per-shard handles
 * merged after the run. The only cross-node step, handing a message
 * from the sender's fabric to the receiver, is the subclass's post()
 * call.
 */

#ifndef LTP_NET_NI_INTERCONNECT_HH
#define LTP_NET_NI_INTERCONNECT_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "net/message.hh"
#include "net/message_pool.hh"
#include "net/topo/interconnect.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/stats.hh"

namespace ltp
{

/** Interconnect base handling everything at the network interfaces. */
class NiInterconnect : public Interconnect
{
  public:
    void setSink(NodeId node, Sink sink) override;
    NodeId numNodes() const override { return NodeId(sinks_.size()); }
    const NetworkParams &params() const override { return params_; }

  protected:
    NiInterconnect(ParallelScheduler &sched, NodeId num_nodes,
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
     * the subclass to do).
     */
    bool injectLocalOrCount(Message &msg);

    /** Serialize @p msg through its egress NI; returns the clear tick. */
    Tick egressDone(const Message &msg);

    /**
     * The in-flight message arena. Subclasses alloc at injection (on
     * the source node's shard) and every later hop moves only the
     * handle; deliver() frees it after the sink ran.
     */
    MessagePool &pool() { return pool_; }
    const MessagePool &pool() const { return pool_; }

    /** Hand @p h (arriving from the subclass's fabric) to dst's NI.
     *  Runs on the destination node's shard. */
    void arriveAtIngress(MsgHandle h);

    /** Sample latency stats, hand the message to its sink, free @p h. */
    virtual void deliver(MsgHandle h);

    NetworkParams params_;

  private:
    /** Schedule @p h's ingress-NI service (ends occupancy from now). */
    void serveIngress(NodeId node, MsgHandle h);

    ParallelScheduler &sched_;
    MessagePool pool_;

    // Shared stat names, one handle per shard (merged after the run).
    std::vector<Counter *> msgsSent_;
    std::vector<Counter *> dataMsgs_;
    std::vector<Average *> endToEndLatency_;
    std::vector<Histogram *> latencyHist_;

    /** Earliest tick each egress NI is free. */
    std::vector<Tick> niEgressFree_;
    /** Per-ingress-NI FIFO of arrived-but-undelivered messages. */
    std::vector<std::deque<MsgHandle>> ingressQueue_;
    /** Nonzero while an ingress NI drain event is scheduled. One byte
     *  per node: nodes on different shards write their flags
     *  concurrently, and vector<bool> would pack them into shared words. */
    std::vector<std::uint8_t> ingressBusy_;
    std::vector<Sink> sinks_;
};

} // namespace ltp

#endif // LTP_NET_NI_INTERCONNECT_HH
