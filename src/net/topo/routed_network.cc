#include "net/topo/routed_network.hh"

#include <algorithm>
#include <cassert>
#include <string>

#include "obs/trace.hh"
#include "sim/guard/checkers.hh"
#include "sim/guard/fault.hh"

namespace ltp
{

namespace
{

std::string
linkStatName(const char *what, NodeId from, NodeId to)
{
    return std::string("net.") + what + "." + std::to_string(from) + "-" +
           std::to_string(to);
}

} // namespace

RoutedNetwork::RoutedNetwork(ParallelScheduler &sched, NodeId num_nodes,
                             NetworkParams params)
    : Interconnect(sched, num_nodes, params),
      geom_(params.topology, num_nodes, params.meshWidth),
      linkIdx_(std::size_t(num_nodes) * num_nodes, -1),
      sendSeq_(std::size_t(num_nodes) * num_nodes, 0),
      pairs_(std::size_t(num_nodes) * num_nodes)
{
    assert(params_.topology != TopologyKind::PointToPoint &&
           "use Network for the point-to-point model");

    for (unsigned s = 0; s < sched.numShards(); ++s) {
        StatGroup &stats = sched.shardStats(s);
        hops_.push_back(&stats.counter("net.hops"));
        hopsPerMsg_.push_back(&stats.average("net.hopsPerMsg"));
        escapeReroutes_.push_back(&stats.counter("net.escapeReroutes"));
        reorderHeld_.push_back(&stats.counter("net.reorderHeld"));
    }

    escapeVcs_ = geom_.wraps() ? 2 : 1;
    unsigned auto_vcs =
        escapeVcs_ +
        (params_.routing == RoutingPolicy::DimensionOrder ? 0 : 1);
    numVcs_ = params_.vcCount ? params_.vcCount : auto_vcs;
    assert(numVcs_ >= auto_vcs && "validateNetworkParams missed");

    for (NodeId from = 0; from < num_nodes; ++from) {
        // A link's queue/credit/busy state is owned by its upstream
        // router's shard: its counters register there too.
        StatGroup &stats = sched.shardStats(sched.shardOf(from));
        for (NodeId to : geom_.neighbors(from)) {
            linkIdx_[std::size_t(from) * num_nodes + to] =
                int(links_.size());
            Link link;
            link.from = from;
            link.to = to;
            link.dim = std::uint8_t(geom_.linkDim(from, to));
            link.wrap = geom_.isWrapLink(from, to);
            if (bounded())
                link.credits.assign(numVcs_, params_.vcDepth);
            link.msgs = &stats.counter(linkStatName("linkMsgs", from, to));
            link.busyCycles =
                &stats.counter(linkStatName("linkBusy", from, to));
            links_.push_back(std::move(link));
        }
    }
}

int
RoutedNetwork::linkIndex(NodeId from, NodeId to) const
{
    return linkIdx_[std::size_t(from) * numNodes() + to];
}

unsigned
RoutedNetwork::obliviousPick(NodeId at, const Message &msg,
                             unsigned n) const
{
    // A pure draw per (injection, hop): the message's (src, dst, netSeq)
    // names the injection, and productive routing visits any router at
    // most once, so `at` names the hop. No router consumes anyone
    // else's stream, which is what lets oblivious routing shard.
    constexpr std::uint64_t seed = 0x0B11'0B11'0B11'0B11ull;
    return unsigned(counterHash(seed, msg.src, msg.dst, msg.netSeq, at) %
                    n);
}

std::uint8_t
RoutedNetwork::escapeVc(NodeId at, NodeId next, const Message &msg) const
{
    if (escapeVcs_ < 2)
        return 0;
    unsigned dim = geom_.linkDim(at, next);
    return (msg.netVcFlags & (1u << dim)) ? 1 : 0;
}

std::uint8_t
RoutedNetwork::adaptiveVc(const Link &link) const
{
    assert(numVcs_ > escapeVcs_);
    if (!bounded() || numVcs_ == escapeVcs_ + 1)
        return std::uint8_t(escapeVcs_);
    // Several adaptive VCs: pick the emptiest downstream buffer.
    unsigned best = escapeVcs_;
    for (unsigned vc = escapeVcs_ + 1; vc < numVcs_; ++vc)
        if (link.credits[vc] > link.credits[best])
            best = vc;
    return std::uint8_t(best);
}

std::size_t
RoutedNetwork::congestion(std::size_t l)
{
    const Link &link = links_[l];
    std::size_t score = link.q.size() + (linkIdle(link) ? 0 : 1);
    if (bounded()) {
        // Count the filled downstream slots too: a drained queue whose
        // buffers are full is still a poor choice.
        for (unsigned vc = 0; vc < numVcs_; ++vc)
            score += params_.vcDepth - link.credits[vc];
    }
    return score;
}

void
RoutedNetwork::send(Message msg)
{
    if (injectLocalOrCount(msg))
        return;

    msg.netSeq = sendSeq_[pairKey(msg.src, msg.dst)]++;
    msg.netVcFlags = 0;
    Tick clear = egressDone(msg);
    auto injected = [this, msg] { forward(msg.src, msg, -1, 0); };
    static_assert(SmallFunction::fitsInline<decltype(injected)>());
    q(msg.src).scheduleAt(clear, injected);
}

void
RoutedNetwork::forward(NodeId at, const Message &msg, std::int32_t in_link,
                       std::uint8_t in_vc)
{
    std::size_t l;
    std::uint8_t vc;
    if (params_.routing == RoutingPolicy::DimensionOrder) {
        NodeId next = geom_.nextHop(at, msg.dst);
        l = routeLink(at, next);
        vc = escapeVc(at, next, msg);
    } else {
        NodeId cands[2];
        unsigned n = geom_.productiveHopsInto(at, msg.dst, cands);
        unsigned pick = 0;
        if (n > 1) {
            if (params_.routing == RoutingPolicy::Oblivious) {
                pick = obliviousPick(at, msg, n);
            } else if (congestion(routeLink(at, cands[1])) <
                       congestion(routeLink(at, cands[0]))) {
                // Minimal-adaptive: the less congested productive port;
                // ties go to the dimension-order choice (element 0).
                pick = 1;
            }
        }
        l = routeLink(at, cands[pick]);
        vc = adaptiveVc(links_[l]);
    }
    enqueue(l, Entry{msg, in_link, vc, in_vc});
}

void
RoutedNetwork::enqueue(std::size_t l, Entry e)
{
    Link &link = links_[l];
    if (!link.draining && link.q.empty() && linkIdle(link) &&
        hasCredit(link, e.vc)) {
        // Uncontended: exactly the grant drainLink() would make at this
        // tick. Skipping the queue round trip spares the deque's block
        // churn (libstdc++ allocates a block per 8 queued 64-byte
        // entries).
        grantAt(l, e, q(link.from).now());
        return;
    }
    link.q.push_back(e);
    pump(l);
}

void
RoutedNetwork::pump(std::size_t l)
{
    Link &link = links_[l];
    if (link.draining)
        return;
    if (!linkIdle(link)) {
        // Serializing: no arbitration until the wire clears. Arm the
        // link engine so exactly one drain event exists at freeAt —
        // this replaces the unconditional per-grant link-free event.
        armEngine(l);
        return;
    }
    drainLink(l);
}

void
RoutedNetwork::armEngine(std::size_t l)
{
    Link &link = links_[l];
    if (link.armed || link.q.empty())
        return;
    link.armed = true;
    q(link.from).scheduleAt(link.freeAt, [this, l] {
        links_[l].armed = false;
        // pump(), not drainLink(): a credit that landed earlier this
        // tick may already have granted and re-busied the link.
        pump(l);
    });
}

void
RoutedNetwork::drainLink(std::size_t l)
{
    Link &link = links_[l];
    if (link.draining)
        return;
    assert(linkIdle(link));
    link.draining = true;

    // Batched drain: one event retires every grant whose outcome is
    // already decided, walking a virtual clock `start` forward by one
    // serialization per grant. The first grant happens at real time
    // (start == now) with exactly the old single-grant arbitration.
    // Later grants happen at virtual times, where only one decision is
    // provably identical to what a real drain event at that tick would
    // make: granting a *credited head*. Credits seen here are a lower
    // bound (returns landing inside (now, start] are invisible to the
    // batch, and a return can never be *lost*), so a head credited
    // under the batch's view is credited for the real event too — and
    // being the head, it is the entry the scan would pick. Everything
    // else — a blocked head with a credited later entry (the real
    // event might instead grant the freshly-credited head), an
    // uncredited queue (the real event might grant or escape-reroute) —
    // ends the batch; armEngine re-decides at freeAt with fresh state.
    // Grant outcomes, ticks and VCs are therefore identical to the
    // one-event-per-grant engine; only the posting event differs.
    Tick now = q(link.from).now();
    Tick start = now;
    for (;;) {
        // Grant the first request whose VC has a free downstream slot.
        // Later entries of *other* VCs may overtake a blocked head (that
        // is what virtual channels are for); same-VC order is preserved
        // because the scan always reaches the earlier entry first.
        std::size_t i = 0;
        for (; i < link.q.size(); ++i) {
            if (hasCredit(link, link.q[i].vc))
                break;
        }
        if (i < link.q.size()) {
            if (start != now && i != 0)
                break; // virtual-time overtake: re-decide at freeAt
            Entry e = link.q[i];
            link.q.erase(link.q.begin() +
                         std::deque<Entry>::difference_type(i));
            grantAt(l, e, start);
            start = link.freeAt;
            if (link.q.empty())
                break;
            continue;
        }

        if (start != now)
            break; // credit view exhausted: re-decide at freeAt

        // Nothing can move. Duato-style escape: hand the oldest blocked
        // adaptive request over to the deadlock-free dimension-order
        // path, then rescan (in-place downgrades may now be grantable).
        std::size_t blocked = link.q.size();
        for (std::size_t j = 0; j < link.q.size(); ++j) {
            if (isAdaptiveVc(link.q[j].vc)) {
                blocked = j;
                break;
            }
        }
        if (blocked == link.q.size())
            break; // only escape traffic left; credits will re-kick us

        Entry e = link.q[blocked];
        link.q.erase(link.q.begin() +
                     std::deque<Entry>::difference_type(blocked));
        const Message &msg = e.msg;
        escapeReroutes_[sched().shardOf(link.from)]->inc();
        sched().tracer().instant(obs::Cat::Link, link.from,
                                 "escape reroute", q(link.from).now(),
                                 msg.dst);
        NodeId dor = geom_.nextHop(link.from, msg.dst);
        e.vc = escapeVc(link.from, dor, msg);
        std::size_t el = routeLink(link.from, dor);
        if (el == l)
            link.q.insert(link.q.begin() +
                              std::deque<Entry>::difference_type(blocked),
                          e);
        else
            enqueue(el, e);
    }

    link.draining = false;
    // Re-arm only when this drain actually busied the wire: with the
    // link still idle (nothing granted — every VC credit-blocked), a
    // drain at freeAt <= now would re-run this same arbitration in the
    // same tick forever. The credit return (scheduleCreditReturn) or
    // the next enqueue() pumps the link instead, as before batching.
    if (!link.q.empty() && !linkIdle(link))
        armEngine(l);
}

void
RoutedNetwork::grantAt(std::size_t l, Entry &e, Tick start)
{
    Link &link = links_[l];
    if (bounded()) {
        --link.credits[e.vc];
        // The upstream input-buffer slot frees as the message leaves it;
        // its credit flies back over the wire.
        if (e.inLink >= 0)
            scheduleCreditReturn(std::size_t(e.inLink), e.inVc, start);
    }

    Tick ser = serializationTicks(e.msg);
    const guard::FaultPlan &faults = sched().faults();
    if (faults.on(guard::FaultKind::LinkStall)) {
        // Deterministic jitter: a pure hash of (seed, link, grant
        // index). The grant sequence on a link is itself deterministic
        // and shard-count invariant, so fault-injected runs stay
        // bit-reproducible at every simThreads value.
        ser += faults.linkStallTicks(l, link.faultGrants++);
    }
    link.msgs->inc();
    link.busyCycles->inc(ser);
    hops_[sched().shardOf(link.from)]->inc();
    // The wire-busy span on the upstream router's track: one grant =
    // one serialization window on link from->to via the allocated VC.
    sched().tracer().span(obs::Cat::Link, link.from, "grant", start,
                          start + ser, link.to, e.vc);

    // Crossing the dateline switches this dimension's escape VC.
    if (link.wrap)
        e.msg.netVcFlags |= std::uint8_t(1u << link.dim);

    // Serialize on the link, then fly one hop and clear the next router's
    // pipeline. Departures from a link are credit-gated but same-VC FIFO,
    // and the downstream delay is constant, so per-(src, dst) order is
    // preserved along any deterministic route.
    //
    // Serialization end is pure bookkeeping (`freeAt`), not an event:
    // the batched link engine (armEngine) only materializes a drain
    // event when traffic is actually waiting for the wire. The arrival
    // mutates the downstream router and crosses shards through post()
    // with serialization + wire + pipeline of lookahead.
    Tick done = start + ser;
    link.freeAt = done;

    Tick arrive = done + params_.hopLatency + params_.routerLatency;
    auto hop = [this, l32 = std::uint32_t(l), vc = e.vc, msg = e.msg] {
        arriveAtRouter(l32, vc, msg);
    };
    static_assert(SmallFunction::fitsInline<decltype(hop)>());
    sched().post(link.to, arrive, chan::link(l), hop);
}

void
RoutedNetwork::scheduleCreditReturn(std::size_t l, std::uint8_t vc,
                                    Tick from)
{
    // Both callers (a downstream grant, an ejection) execute on the
    // shard of links_[l].to — the router holding the freed buffer slot —
    // while the credit mutates links_[l], owned by links_[l].from's
    // shard one wire hop upstream. @p from is the freeing grant's
    // (possibly virtual) start tick, >= the posting event's now.
    Tick when = from + params_.hopLatency;
    sched().post(links_[l].from, when, chan::credit(l), [this, l, vc] {
        Link &link = links_[l];
        ++link.credits[vc];
        assert(link.credits[vc] <= params_.vcDepth &&
               "credit conservation violated");
        if (sched().checks().on(obs::Cat::Link) &&
            link.credits[vc] > params_.vcDepth) {
            // The assert's always-on twin: catches credit over-return
            // in Release builds the moment it happens.
            throw guard::CheckFailure(
                "credit over-return on link " + std::to_string(link.from) +
                "->" + std::to_string(link.to) + " vc " +
                std::to_string(vc) + ": " +
                std::to_string(link.credits[vc]) + " credits > vcDepth " +
                std::to_string(params_.vcDepth));
        }
        if (linkIdle(link))
            drainLink(l);
    });
}

void
RoutedNetwork::arriveAtRouter(std::uint32_t l, std::uint8_t vc,
                              const Message &msg)
{
    NodeId at = links_[l].to;
    if (at == msg.dst) {
        // Ejection is always available, so the input-buffer slot frees
        // immediately.
        if (bounded())
            scheduleCreditReturn(l, vc, q(at).now());
        reorderDeliver(msg);
        return;
    }
    forward(at, msg, std::int32_t(l), vc);
}

void
RoutedNetwork::reorderDeliver(const Message &msg)
{
    PairState &ps = pairs_[pairKey(msg.src, msg.dst)];
    if (msg.netSeq != ps.nextSeq) {
        // An earlier injection of this pair is still in flight (adaptive
        // or oblivious routing took a different path); park this one.
        reorderHeld_[sched().shardOf(msg.dst)]->inc();
        ps.pending.emplace(msg.netSeq, msg);
        return;
    }
    arriveAtIngress(msg);
    ++ps.nextSeq;
    for (auto it = ps.pending.find(ps.nextSeq); it != ps.pending.end();
         it = ps.pending.find(ps.nextSeq)) {
        arriveAtIngress(it->second);
        ps.pending.erase(it);
        ++ps.nextSeq;
    }
}

void
RoutedNetwork::deliver(const Message &msg)
{
    hopsPerMsg_[sched().shardOf(msg.dst)]->sample(
        double(geom_.hopCount(msg.src, msg.dst)));
    Interconnect::deliver(msg);
}

void
RoutedNetwork::guardCheckQuiesce() const
{
    for (std::size_t l = 0; l < links_.size(); ++l) {
        const Link &link = links_[l];
        std::string where = "link " + std::to_string(link.from) + "->" +
                            std::to_string(link.to);
        if (!link.q.empty()) {
            const Message &first = link.q.front().msg;
            throw guard::CheckFailure(
                where + " still holds " + std::to_string(link.q.size()) +
                " waiting message(s) at quiesce (first: " +
                msgTypeName(first.type) + " " + std::to_string(first.src) +
                "->" + std::to_string(first.dst) + ")");
        }
        if (!bounded())
            continue;
        for (unsigned vc = 0; vc < numVcs_; ++vc) {
            if (link.credits[vc] != params_.vcDepth) {
                throw guard::CheckFailure(
                    "credit conservation violated at quiesce: " + where +
                    " vc " + std::to_string(vc) + " holds " +
                    std::to_string(link.credits[vc]) + "/" +
                    std::to_string(params_.vcDepth) + " credits");
            }
        }
    }
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
        const PairState &ps = pairs_[p];
        if (!ps.pending.empty()) {
            NodeId src = NodeId(p / numNodes());
            NodeId dst = NodeId(p % numNodes());
            throw guard::CheckFailure(
                "reorder buffer for pair " + std::to_string(src) + "->" +
                std::to_string(dst) + " still parks " +
                std::to_string(ps.pending.size()) +
                " message(s) at quiesce (next expected netSeq " +
                std::to_string(ps.nextSeq) + ", first parked " +
                std::to_string(ps.pending.begin()->first) + ")");
        }
    }
}

} // namespace ltp
