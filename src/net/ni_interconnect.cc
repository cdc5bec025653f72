#include "net/ni_interconnect.hh"

#include <cassert>

namespace ltp
{

NiInterconnect::NiInterconnect(ParallelScheduler &sched, NodeId num_nodes,
                               NetworkParams params)
    : params_(params),
      sched_(sched),
      pool_(sched.numShards()),
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
NiInterconnect::setSink(NodeId node, Sink sink)
{
    assert(node < sinks_.size());
    sinks_[node] = std::move(sink);
}

bool
NiInterconnect::injectLocalOrCount(Message &msg)
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
    // Local delivery: no NI serialization, a nominal 1-cycle hop. The
    // pooled handle keeps even this event's capture at two words.
    MsgHandle h = pool_.alloc(shard, msg);
    eq.scheduleIn(1, [this, h] { deliver(h); });
    return true;
}

Tick
NiInterconnect::egressDone(const Message &msg)
{
    Tick occ = niOccupancy(msg);
    Tick start = std::max(q(msg.src).now(), niEgressFree_[msg.src]);
    niEgressFree_[msg.src] = start + occ;
    return start + occ;
}

void
NiInterconnect::arriveAtIngress(MsgHandle h)
{
    NodeId dst = pool_.at(h).dst;
    if (ingressBusy_[dst]) {
        ingressQueue_[dst].push_back(h);
        return;
    }
    // Idle NI: service starts immediately — skip the queue round-trip.
    ingressBusy_[dst] = 1;
    serveIngress(dst, h);
}

void
NiInterconnect::serveIngress(NodeId node, MsgHandle h)
{
    // The busy flag serializes the NI: this event runs at (or, when the
    // NI went idle, after) the previous message's finish tick, so the
    // next service always starts now.
    q(node).scheduleIn(niOccupancy(pool_.at(h)), [this, node, h] {
        deliver(h);
        std::deque<MsgHandle> &queue = ingressQueue_[node];
        if (queue.empty()) {
            ingressBusy_[node] = 0;
            return;
        }
        MsgHandle next = queue.front();
        queue.pop_front();
        serveIngress(node, next);
    });
}

void
NiInterconnect::deliver(MsgHandle h)
{
    // Slabs never move, so this reference survives anything the sink
    // does (including injecting new messages); free only after it ran.
    const Message &msg = pool_.at(h);
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
    pool_.free(h, shard);
}

} // namespace ltp
