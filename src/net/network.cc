#include "net/network.hh"

namespace ltp
{

void
Network::send(Message msg)
{
    if (injectLocalOrCount(msg))
        return;

    // The receiver-side hand-off: egress serialization + flight is the
    // model's cross-node lookahead (networkLookahead), so the post
    // always clears the parallel engine's window. Only the pooled
    // handle crosses the shard boundary.
    Tick arrive = egressDone(msg) + params_.flightLatency;
    MsgHandle h = pool().alloc(sched().shardOf(msg.src), msg);
    sched().post(msg.dst, arrive, chan::pair(msg.src, msg.dst, numNodes()),
                 [this, h] { arriveAtIngress(h); });
}

} // namespace ltp
