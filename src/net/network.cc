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
    // always clears the parallel engine's window.
    Tick arrive = egressDone(msg) + params_.flightLatency;
    auto arrival = [this, msg] { arriveAtIngress(msg); };
    static_assert(SmallFunction::fitsInline<decltype(arrival)>());
    sched().post(msg.dst, arrive, chan::pair(msg.src, msg.dst, numNodes()),
                 arrival);
}

} // namespace ltp
