/**
 * @file
 * Credit-based backpressure properties of the VC router:
 *
 *  - conservation: per-(link, VC) credits never exceed the configured
 *    buffer depth while traffic is in flight, and return exactly to the
 *    depth once the network drains (no credit is ever lost or minted);
 *  - no message is lost or duplicated under finite buffers, for every
 *    routing policy (the escape path re-routes but never drops);
 *  - backpressure stalls senders: a bounded run of the same traffic can
 *    only be slower than the unbounded run, never faster.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "net/topo/routed_network.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/rng.hh"

namespace ltp
{
namespace
{

constexpr NodeId kNodes = 16;
constexpr int kMessages = 600;

NetworkParams
boundedParams(RoutingPolicy routing, unsigned depth)
{
    NetworkParams p;
    p.topology = TopologyKind::Mesh2D;
    p.routing = routing;
    p.vcDepth = depth;
    return p;
}

/** Assert every (link, VC) credit count is within [0, depth]. */
void
checkCreditBounds(const RoutedNetwork &net, unsigned depth)
{
    for (std::size_t l = 0; l < net.numLinks(); ++l)
        for (unsigned vc = 0; vc < net.numVcs(); ++vc)
            ASSERT_LE(net.creditsAvailable(l, vc), depth)
                << "link " << l << " vc " << vc;
}

class VcCreditTest : public ::testing::TestWithParam<RoutingPolicy>
{
};

TEST_P(VcCreditTest, CreditsConserveAndNoMessageIsLostOrDuplicated)
{
    constexpr unsigned kDepth = 2;
    NetworkParams params = boundedParams(GetParam(), kDepth);
    ParallelScheduler sched(1, kNodes, networkLookahead(params).ticks);
    EventQueue &eq = sched.queueFor(0);
    RoutedNetwork net(sched, kNodes, params);
    ASSERT_TRUE(net.bounded());
    ASSERT_GE(net.numVcs(), net.numEscapeVcs());

    std::map<Addr, int> deliveredBy;
    for (NodeId n = 0; n < kNodes; ++n)
        net.setSink(n, [&deliveredBy](const Message &m) {
            ++deliveredBy[m.addr];
        });

    // Hotspot-skewed random burst, same shape as the FIFO property test.
    Rng rng(0xC4ED17 + std::uint64_t(GetParam()));
    for (int i = 0; i < kMessages; ++i) {
        Message m;
        m.type = rng.below(2) ? MsgType::GetS : MsgType::DataS;
        m.src = NodeId(rng.below(kNodes));
        m.dst = rng.below(3) == 0 ? NodeId(5) : NodeId(rng.below(kNodes));
        m.addr = Addr(i);
        eq.scheduleAt(rng.below(300), [&net, m] { net.send(m); });
    }
    // Periodic probes: conservation must hold mid-flight, not just at
    // the end.
    for (Tick t = 100; t < 4000; t += 100)
        eq.scheduleAt(t, [&net] { checkCreditBounds(net, kDepth); });
    sched.runUntil(tickNever);

    ASSERT_EQ(deliveredBy.size(), std::size_t(kMessages))
        << "some message was lost";
    for (const auto &[addr, count] : deliveredBy)
        EXPECT_EQ(count, 1) << "message " << addr
                            << " delivered more than once";

    // Once drained, every input buffer is empty again: credits must sit
    // exactly at the configured depth.
    for (std::size_t l = 0; l < net.numLinks(); ++l)
        for (unsigned vc = 0; vc < net.numVcs(); ++vc)
            EXPECT_EQ(net.creditsAvailable(l, vc), kDepth)
                << "link " << l << " vc " << vc;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, VcCreditTest,
    ::testing::Values(RoutingPolicy::DimensionOrder,
                      RoutingPolicy::MinimalAdaptive,
                      RoutingPolicy::Oblivious),
    [](const ::testing::TestParamInfo<RoutingPolicy> &info) {
        return std::string(routingPolicyName(info.param));
    });

TEST(VcBackpressure, BoundedBuffersOnlySlowTrafficDown)
{
    // One congested column on a 4x4 mesh: eight senders burst at node 5.
    auto runWith = [](unsigned depth) {
        NetworkParams p;
        p.topology = TopologyKind::Mesh2D;
        p.vcDepth = depth;
        ParallelScheduler sched(1, kNodes, networkLookahead(p).ticks);
        EventQueue &eq = sched.queueFor(0);
        RoutedNetwork net(sched, kNodes, p);
        Tick last = 0;
        for (NodeId n = 0; n < kNodes; ++n)
            net.setSink(n, [&last, &eq](const Message &) {
                last = eq.now();
            });
        for (int burst = 0; burst < 8; ++burst) {
            Message m;
            m.type = MsgType::DataS;
            m.src = NodeId(burst % 4);
            m.dst = 5;
            m.addr = Addr(burst);
            net.send(m);
        }
        sched.runUntil(tickNever);
        return last;
    };

    Tick unbounded = runWith(0);
    Tick bounded = runWith(1);
    EXPECT_GE(bounded, unbounded);
}

TEST(VcLayout, AutoVcCountMatchesTopologyAndRouting)
{
    ParallelScheduler sched(1, 16, /*window=*/80); // never runs

    NetworkParams mesh_dor;
    mesh_dor.topology = TopologyKind::Mesh2D;
    EXPECT_EQ(RoutedNetwork(sched, 16, mesh_dor).numVcs(), 1u);

    NetworkParams mesh_ad = mesh_dor;
    mesh_ad.routing = RoutingPolicy::MinimalAdaptive;
    RoutedNetwork mesh_net(sched, 16, mesh_ad);
    EXPECT_EQ(mesh_net.numVcs(), 2u);
    EXPECT_EQ(mesh_net.numEscapeVcs(), 1u);

    NetworkParams torus_ad;
    torus_ad.topology = TopologyKind::Torus2D;
    torus_ad.routing = RoutingPolicy::MinimalAdaptive;
    RoutedNetwork torus_net(sched, 16, torus_ad);
    EXPECT_EQ(torus_net.numVcs(), 3u);
    EXPECT_EQ(torus_net.numEscapeVcs(), 2u);
}

} // namespace
} // namespace ltp
