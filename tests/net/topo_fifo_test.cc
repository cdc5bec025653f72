/**
 * @file
 * Randomized property test: every Interconnect implementation must
 * deliver the messages of one (src, dst) pair in send order — the
 * invariant the coherence protocol's correctness rests on — and must
 * deliver every injected message exactly once.
 *
 * Parameterized over topology x routing policy x buffer depth: the
 * dimension-order cases preserve order by construction (deterministic
 * single path of FIFO links), while the adaptive/oblivious cases rely on
 * the ingress reorder buffer; finite depths additionally exercise
 * credit-based backpressure and the escape-path fallback under the same
 * invariant.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "net/topo/interconnect.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace ltp
{
namespace
{

constexpr NodeId kNodes = 16;
constexpr int kMessages = 800;

struct FifoCase
{
    TopologyKind topo;
    RoutingPolicy routing;
    unsigned vcDepth; //!< 0 = unbounded buffers (no backpressure)
};

class TopoFifoTest : public ::testing::TestWithParam<FifoCase>
{
};

/** Random message type spanning both size classes. */
MsgType
randomType(Rng &rng)
{
    static const MsgType types[] = {MsgType::GetS, MsgType::GetX,
                                    MsgType::Inv,  MsgType::InvAck,
                                    MsgType::DataS, MsgType::DataX,
                                    MsgType::WbData};
    return types[rng.below(std::size(types))];
}

TEST_P(TopoFifoTest, PairwiseFifoUnderRandomContention)
{
    NetworkParams params;
    params.topology = GetParam().topo;
    params.routing = GetParam().routing;
    params.vcDepth = GetParam().vcDepth;
    ParallelScheduler sched(1, kNodes, networkLookahead(params).ticks);
    EventQueue &eq = sched.queueFor(0);
    StatGroup &stats = sched.shardStats(0);
    auto net = makeInterconnect(sched, kNodes, params);
    ASSERT_EQ(net->topology(), GetParam().topo);

    using Pair = std::pair<NodeId, NodeId>;
    std::map<Pair, std::vector<Addr>> sent, received;

    for (NodeId n = 0; n < kNodes; ++n) {
        net->setSink(n, [&received, n](const Message &m) {
            ASSERT_EQ(m.dst, n);
            received[{m.src, m.dst}].push_back(m.addr);
        });
    }

    // Burst injections at random times from random sources — enough
    // concentrated traffic to congest NIs and (for routed topologies)
    // shared links. Each message carries a unique tag in `addr`; the
    // send order per pair is recorded when the send actually executes.
    Rng rng(0xF1F0 + std::uint64_t(GetParam().topo));
    for (int i = 0; i < kMessages; ++i) {
        Message m;
        m.type = randomType(rng);
        m.src = NodeId(rng.below(kNodes));
        // Skew destinations toward a hotspot to force queueing.
        m.dst = rng.below(3) == 0 ? NodeId(5) : NodeId(rng.below(kNodes));
        m.addr = Addr(i);
        Tick when = rng.below(400);
        eq.scheduleAt(when, [&sent, &net, m] {
            sent[{m.src, m.dst}].push_back(m.addr);
            net->send(m);
        });
    }
    sched.runUntil(tickNever);

    std::size_t delivered = 0;
    for (const auto &[pair, tags] : sent) {
        auto it = received.find(pair);
        ASSERT_NE(it, received.end())
            << "pair " << pair.first << "->" << pair.second
            << " lost all its messages";
        EXPECT_EQ(it->second, tags)
            << "pair " << pair.first << "->" << pair.second
            << " delivered out of order";
        delivered += it->second.size();
    }
    EXPECT_EQ(delivered, std::size_t(kMessages));
    EXPECT_EQ(stats.counterValue("net.msgs"), std::uint64_t(kMessages));
}

std::string
caseName(const ::testing::TestParamInfo<FifoCase> &info)
{
    const FifoCase &c = info.param;
    std::string topo = c.topo == TopologyKind::PointToPoint
                           ? "PointToPoint"
                           : topologyKindName(c.topo);
    return topo + "_" + routingPolicyName(c.routing) +
           (c.vcDepth ? "_depth" + std::to_string(c.vcDepth) : "_inf");
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologiesAndPolicies, TopoFifoTest,
    ::testing::Values(
        FifoCase{TopologyKind::PointToPoint, RoutingPolicy::DimensionOrder,
                 0},
        FifoCase{TopologyKind::Mesh2D, RoutingPolicy::DimensionOrder, 0},
        FifoCase{TopologyKind::Mesh2D, RoutingPolicy::DimensionOrder, 3},
        FifoCase{TopologyKind::Mesh2D, RoutingPolicy::MinimalAdaptive, 0},
        FifoCase{TopologyKind::Mesh2D, RoutingPolicy::MinimalAdaptive, 3},
        FifoCase{TopologyKind::Mesh2D, RoutingPolicy::Oblivious, 0},
        FifoCase{TopologyKind::Mesh2D, RoutingPolicy::Oblivious, 2},
        FifoCase{TopologyKind::Torus2D, RoutingPolicy::DimensionOrder, 0},
        FifoCase{TopologyKind::Torus2D, RoutingPolicy::DimensionOrder, 3},
        FifoCase{TopologyKind::Torus2D, RoutingPolicy::MinimalAdaptive, 3},
        FifoCase{TopologyKind::Torus2D, RoutingPolicy::Oblivious, 3},
        FifoCase{TopologyKind::Ring, RoutingPolicy::DimensionOrder, 0},
        FifoCase{TopologyKind::Ring, RoutingPolicy::DimensionOrder, 2},
        FifoCase{TopologyKind::Ring, RoutingPolicy::MinimalAdaptive, 2}),
    caseName);

} // namespace
} // namespace ltp
