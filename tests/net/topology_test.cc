/** @file Unit tests for topology geometry, routing, and the routed
 *  interconnect's hop/contention-dependent latency. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/network.hh"
#include "net/topo/routed_network.hh"
#include "net/topo/topology.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/stats.hh"

namespace ltp
{
namespace
{

TEST(TopologyKindNames, RoundTrip)
{
    for (TopologyKind k : allTopologyKinds()) {
        auto parsed = parseTopologyKind(topologyKindName(k));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, k);
    }
    EXPECT_EQ(parseTopologyKind("MESH2D"), TopologyKind::Mesh2D);
    EXPECT_EQ(parseTopologyKind("point-to-point"),
              TopologyKind::PointToPoint);
    EXPECT_FALSE(parseTopologyKind("hypercube").has_value());
}

TEST(TopologyGeometry, MostSquareFactorization)
{
    TopologyGeometry g16(TopologyKind::Mesh2D, 16);
    EXPECT_EQ(g16.width(), 4u);
    EXPECT_EQ(g16.height(), 4u);

    TopologyGeometry g32(TopologyKind::Mesh2D, 32);
    EXPECT_EQ(g32.width(), 4u);
    EXPECT_EQ(g32.height(), 8u);

    // An explicit, dividing width wins over the auto choice.
    TopologyGeometry g32w8(TopologyKind::Mesh2D, 32, 8);
    EXPECT_EQ(g32w8.width(), 8u);
    EXPECT_EQ(g32w8.height(), 4u);
}

TEST(TopologyGeometry, NonDividingWidthIsAHardError)
{
    // A silently re-factorized layout would skew every hop-count result,
    // so a width that does not divide the node count must throw.
    EXPECT_THROW(TopologyGeometry(TopologyKind::Mesh2D, 32, 5),
                 std::invalid_argument);
    EXPECT_THROW(TopologyGeometry(TopologyKind::Torus2D, 16, 3),
                 std::invalid_argument);
    EXPECT_THROW(TopologyGeometry(TopologyKind::Mesh2D, 32, 33),
                 std::invalid_argument);
}

TEST(NetworkParamsValidation, RejectsBadCombinations)
{
    ParallelScheduler sched(1, 32, /*window=*/80); // never runs

    NetworkParams bad_width;
    bad_width.topology = TopologyKind::Mesh2D;
    bad_width.meshWidth = 5;
    EXPECT_THROW(makeInterconnect(sched, 32, bad_width),
                 std::invalid_argument);

    NetworkParams no_bw;
    no_bw.linkBandwidth = 0;
    EXPECT_THROW(makeInterconnect(sched, 32, no_bw),
                 std::invalid_argument);

    // A wrap topology needs two escape VCs; adaptive routing one more.
    NetworkParams few_vcs;
    few_vcs.topology = TopologyKind::Torus2D;
    few_vcs.vcCount = 1;
    EXPECT_THROW(makeInterconnect(sched, 16, few_vcs),
                 std::invalid_argument);
    few_vcs.vcCount = 2;
    EXPECT_NO_THROW(makeInterconnect(sched, 16, few_vcs));
    few_vcs.routing = RoutingPolicy::MinimalAdaptive;
    EXPECT_THROW(makeInterconnect(sched, 16, few_vcs),
                 std::invalid_argument);

    // Dividing widths and the auto layout stay valid.
    NetworkParams good;
    good.topology = TopologyKind::Mesh2D;
    good.meshWidth = 8;
    EXPECT_NO_THROW(makeInterconnect(sched, 32, good));
    good.meshWidth = 0;
    EXPECT_NO_THROW(makeInterconnect(sched, 32, good));
}

TEST(TopologyGeometry, CoordRoundTrip)
{
    TopologyGeometry g(TopologyKind::Mesh2D, 12, 4); // 4 x 3
    for (NodeId n = 0; n < 12; ++n)
        EXPECT_EQ(g.idOf(g.coordOf(n)), n);
    EXPECT_EQ(g.coordOf(5).x, 1u);
    EXPECT_EQ(g.coordOf(5).y, 1u);
}

TEST(TopologyGeometry, MeshHopCountIsManhattanDistance)
{
    TopologyGeometry g(TopologyKind::Mesh2D, 16); // 4 x 4
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            Coord cs = g.coordOf(s), cd = g.coordOf(d);
            unsigned manhattan =
                (cs.x > cd.x ? cs.x - cd.x : cd.x - cs.x) +
                (cs.y > cd.y ? cs.y - cd.y : cd.y - cs.y);
            EXPECT_EQ(g.hopCount(s, d), manhattan);
        }
    }
}

TEST(TopologyGeometry, TorusWrapShortensDistance)
{
    TopologyGeometry g(TopologyKind::Torus2D, 16); // 4 x 4
    // Corner to corner: one wrap hop per dimension.
    EXPECT_EQ(g.hopCount(0, 3), 1u);   // (0,0) -> (3,0)
    EXPECT_EQ(g.hopCount(0, 15), 2u);  // (0,0) -> (3,3)
    EXPECT_EQ(g.hopCount(0, 10), 4u);  // (0,0) -> (2,2): 2 + 2
}

TEST(TopologyGeometry, RingTakesShorterDirection)
{
    TopologyGeometry g(TopologyKind::Ring, 8);
    EXPECT_EQ(g.hopCount(0, 7), 1u);
    EXPECT_EQ(g.hopCount(0, 4), 4u);
    EXPECT_EQ(g.hopCount(0, 5), 3u);
    EXPECT_EQ(g.nextHop(0, 5), 7u); // backward around the ring
    EXPECT_EQ(g.nextHop(0, 2), 1u); // forward
}

TEST(TopologyGeometry, ProductiveHopsMatchDimensionCandidates)
{
    TopologyGeometry g(TopologyKind::Mesh2D, 16); // 4 x 4
    // (0,0) -> (2,2): X and Y both unresolved; X candidate first, so
    // element 0 is always the dimension-order next hop.
    EXPECT_EQ(g.productiveHops(0, 10), (std::vector<NodeId>{1, 4}));
    EXPECT_EQ(g.productiveHops(0, 10)[0], g.nextHop(0, 10));
    // Same row: only the X candidate remains.
    EXPECT_EQ(g.productiveHops(0, 3), (std::vector<NodeId>{1}));
    // Same column: only the Y candidate.
    EXPECT_EQ(g.productiveHops(0, 12), (std::vector<NodeId>{4}));
}

TEST(TopologyGeometry, WrapLinkAndDimQueries)
{
    TopologyGeometry g(TopologyKind::Torus2D, 16); // 4 x 4
    EXPECT_EQ(g.linkDim(0, 1), 0u);
    EXPECT_EQ(g.linkDim(0, 4), 1u);
    EXPECT_FALSE(g.isWrapLink(0, 1));
    EXPECT_TRUE(g.isWrapLink(0, 3));  // x: 0 -> 3 crosses the seam
    EXPECT_TRUE(g.isWrapLink(0, 12)); // y: 0 -> 12 crosses the seam
    TopologyGeometry m(TopologyKind::Mesh2D, 16);
    EXPECT_FALSE(m.isWrapLink(0, 1));
}

TEST(TopologyGeometry, PointToPointIsSingleHop)
{
    TopologyGeometry g(TopologyKind::PointToPoint, 8);
    EXPECT_EQ(g.hopCount(0, 7), 1u);
    EXPECT_EQ(g.nextHop(0, 7), 7u);
    EXPECT_EQ(g.neighbors(0).size(), 7u);
}

/** Walk nextHop() until dst; returns the visited node sequence. */
std::vector<NodeId>
route(const TopologyGeometry &g, NodeId src, NodeId dst)
{
    std::vector<NodeId> path{src};
    NodeId cur = src;
    while (cur != dst) {
        cur = g.nextHop(cur, dst);
        path.push_back(cur);
        EXPECT_LT(path.size(), std::size_t(g.numNodes()) + 1)
            << "routing loop";
        if (path.size() > g.numNodes())
            break;
    }
    return path;
}

TEST(TopologyGeometry, MeshRoutesDimensionOrder)
{
    TopologyGeometry g(TopologyKind::Mesh2D, 16); // 4 x 4
    // (0,0) -> (2,2): X first through (1,0), (2,0), then Y.
    std::vector<NodeId> expect = {0, 1, 2, 6, 10};
    EXPECT_EQ(route(g, 0, 10), expect);
}

TEST(TopologyGeometry, RouteLengthMatchesHopCountEverywhere)
{
    for (TopologyKind k :
         {TopologyKind::Mesh2D, TopologyKind::Torus2D, TopologyKind::Ring}) {
        TopologyGeometry g(k, 12);
        for (NodeId s = 0; s < 12; ++s)
            for (NodeId d = 0; d < 12; ++d)
                if (s != d)
                    EXPECT_EQ(route(g, s, d).size(), g.hopCount(s, d) + 1)
                        << topologyKindName(k) << " " << s << "->" << d;
    }
}

TEST(TopologyGeometry, NeighborsAreMutual)
{
    for (TopologyKind k :
         {TopologyKind::Mesh2D, TopologyKind::Torus2D, TopologyKind::Ring}) {
        TopologyGeometry g(k, 12);
        for (NodeId n = 0; n < 12; ++n) {
            for (NodeId m : g.neighbors(n)) {
                auto back = g.neighbors(m);
                EXPECT_NE(std::find(back.begin(), back.end(), n),
                          back.end());
            }
        }
    }
}

// ---- RoutedNetwork timing ------------------------------------------------

class RoutedNetworkTest : public ::testing::Test
{
  protected:
    static NetworkParams
    meshParams()
    {
        NetworkParams p;
        p.topology = TopologyKind::Mesh2D;
        return p;
    }

    /** Link serialization in cycles: ceil(message bytes / bandwidth). */
    static Tick
    serTicks(const NetworkParams &p, bool data)
    {
        unsigned bytes = p.headerBytes + (data ? p.blockBytes : 0);
        return (bytes + p.linkBandwidth - 1) / p.linkBandwidth;
    }

    /** Per-hop cost with default knobs (no contention). */
    static Tick
    hopCost(const NetworkParams &p, bool data)
    {
        return serTicks(p, data) + p.hopLatency + p.routerLatency;
    }

    Message
    msg(MsgType t, NodeId src, NodeId dst, Addr a = 0x100)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.addr = a;
        return m;
    }

    /** Deliver one message on a fresh 4x4 mesh; returns its latency. */
    Tick
    oneMessageLatency(NodeId src, NodeId dst)
    {
        NetworkParams p = meshParams();
        ParallelScheduler sched(1, 16, networkLookahead(p).ticks);
        EventQueue &eq = sched.queueFor(0);
        RoutedNetwork net(sched, 16, p);
        Tick arrived = 0;
        for (NodeId n = 0; n < 16; ++n)
            net.setSink(n, [&, n](const Message &) { arrived = eq.now(); });
        net.send(msg(MsgType::GetS, src, dst));
        sched.runUntil(tickNever);
        return arrived;
    }
};

TEST_F(RoutedNetworkTest, LatencyIsNiPlusPerHopCosts)
{
    NetworkParams p = meshParams();
    // 0 -> 1 on a 4x4 mesh: one hop.
    EXPECT_EQ(oneMessageLatency(0, 1),
              p.controlOccupancy + 1 * hopCost(p, false) +
                  p.controlOccupancy);
    // 0 -> 10 ((0,0) -> (2,2)): four hops.
    EXPECT_EQ(oneMessageLatency(0, 10),
              p.controlOccupancy + 4 * hopCost(p, false) +
                  p.controlOccupancy);
}

/**
 * Calibration pin (ROADMAP): the default byte-bandwidth knobs are chosen
 * so one unloaded routed hop costs a control message exactly the paper's
 * 80-cycle point-to-point flight (16 B header / 4 B-per-cycle link = 4
 * cycles of serialization, plus wire and router). Adjacent-node latency
 * must therefore be identical under the p2p model and every routed
 * topology.
 */
TEST_F(RoutedNetworkTest, DefaultKnobsMatchPaperFlightLatencyAtOneHop)
{
    NetworkParams p = meshParams();
    EXPECT_EQ(serTicks(p, false), 4u);
    EXPECT_EQ(serTicks(p, true), 12u);
    EXPECT_EQ(serTicks(p, false) + p.hopLatency + p.routerLatency,
              p.flightLatency);
    EXPECT_EQ(hopCost(p, false), 80u);

    // p2p end-to-end for a control message: egress NI + flight + ingress.
    Tick p2p;
    {
        NetworkParams p2p_params;
        ParallelScheduler sched(1, 16, networkLookahead(p2p_params).ticks);
        EventQueue &eq = sched.queueFor(0);
        Network net(sched, 16, p2p_params);
        Tick arrived = 0;
        for (NodeId n = 0; n < 16; ++n)
            net.setSink(n, [&](const Message &) { arrived = eq.now(); });
        net.send(msg(MsgType::GetS, 0, 1));
        sched.runUntil(tickNever);
        p2p = arrived;
    }
    EXPECT_EQ(p2p, p.controlOccupancy + p.flightLatency +
                       p.controlOccupancy);
    // One routed hop on the mesh times identically.
    EXPECT_EQ(oneMessageLatency(0, 1), p2p);
}

TEST_F(RoutedNetworkTest, MeshLatencyGrowsWithManhattanDistance)
{
    TopologyGeometry g(TopologyKind::Mesh2D, 16);
    // 0 -> 1, 2, 3, 7, 11, 15: distances 1, 2, 3, 4, 5, 6.
    Tick prev = 0;
    for (NodeId dst : {1, 2, 3, 7, 11, 15}) {
        Tick lat = oneMessageLatency(0, dst);
        EXPECT_GT(lat, prev) << "dst " << dst << " (distance "
                             << g.hopCount(0, dst) << ")";
        prev = lat;
    }
}

TEST_F(RoutedNetworkTest, SharedLinkContentionSerializes)
{
    ParallelScheduler sched(1, 16, networkLookahead(meshParams()).ticks);
    EventQueue &eq = sched.queueFor(0);
    RoutedNetwork net(sched, 16, meshParams());
    std::vector<std::pair<Addr, Tick>> arrivals;
    for (NodeId n = 0; n < 16; ++n)
        net.setSink(n, [&](const Message &m) {
            arrivals.push_back({m.addr, eq.now()});
        });

    // A slow data message followed by a control message on the same
    // route (0 -> 1 -> 2). The control message catches up and queues
    // behind the data message at every link and at the ingress NI.
    net.send(msg(MsgType::DataS, 0, 2, 0xA));
    net.send(msg(MsgType::GetS, 0, 2, 0xB));
    sched.runUntil(tickNever);
    ASSERT_EQ(arrivals.size(), 2u);
    NetworkParams p = meshParams();

    // Data message sails through unloaded.
    EXPECT_EQ(arrivals[0].first, 0xAu);
    EXPECT_EQ(arrivals[0].second, p.dataOccupancy + 2 * hopCost(p, true) +
                                      p.dataOccupancy);

    // The control message arrives later (pairwise FIFO preserved) and
    // later than NI serialization alone explains: it also queued on the
    // links behind the data message.
    EXPECT_EQ(arrivals[1].first, 0xBu);
    EXPECT_GT(arrivals[1].second, arrivals[0].second);
    Tick egress_wait = p.dataOccupancy;
    Tick unloaded_ctrl = p.controlOccupancy + 2 * hopCost(p, false) +
                         p.controlOccupancy;
    EXPECT_GT(arrivals[1].second, egress_wait + unloaded_ctrl);
}

TEST_F(RoutedNetworkTest, LinkAndHopStatsPopulated)
{
    ParallelScheduler sched(1, 16, networkLookahead(meshParams()).ticks);
    StatGroup &stats = sched.shardStats(0);
    RoutedNetwork net(sched, 16, meshParams());
    for (NodeId n = 0; n < 16; ++n)
        net.setSink(n, [](const Message &) {});

    net.send(msg(MsgType::GetS, 0, 2)); // route 0 -> 1 -> 2
    sched.runUntil(tickNever);

    EXPECT_EQ(stats.counterValue("net.hops"), 2u);
    NetworkParams p = meshParams();
    EXPECT_EQ(stats.counterValue("net.linkBusy.0-1"), serTicks(p, false));
    EXPECT_EQ(stats.counterValue("net.linkMsgs.0-1"), 1u);
    EXPECT_EQ(stats.counterValue("net.linkBusy.1-2"), serTicks(p, false));
    EXPECT_EQ(stats.counterValue("net.linkMsgs.2-3"), 0u);

    ASSERT_TRUE(stats.hasHistogram("net.endToEndLatency"));
    EXPECT_EQ(stats.findHistogram("net.endToEndLatency")->totalSamples(),
              1u);
    EXPECT_DOUBLE_EQ(stats.averageMean("net.hopsPerMsg"), 2.0);
}

TEST_F(RoutedNetworkTest, LinkCountsMatchTopology)
{
    ParallelScheduler sched(1, 16, /*window=*/80); // never runs

    NetworkParams mesh = meshParams();
    EXPECT_EQ(RoutedNetwork(sched, 16, mesh).numLinks(), 48u);

    NetworkParams torus;
    torus.topology = TopologyKind::Torus2D;
    EXPECT_EQ(RoutedNetwork(sched, 16, torus).numLinks(), 64u);

    NetworkParams ring;
    ring.topology = TopologyKind::Ring;
    EXPECT_EQ(RoutedNetwork(sched, 8, ring).numLinks(), 16u);
}

/**
 * On an even-extent torus the two wrap directions tie; the tie-break is
 * pinned toward the increasing coordinate for every routing policy, so
 * even-extent torus routes stay deterministic per (src, dst).
 */
TEST_F(RoutedNetworkTest, TorusEvenExtentTieBreakPinnedForAllPolicies)
{
    TopologyGeometry g(TopologyKind::Torus2D, 16); // 4 x 4: extent 4
    // 0 -> 2 in X: forward and backward are both 2 hops.
    EXPECT_EQ(g.hopCount(0, 2), 2u);
    EXPECT_EQ(g.nextHop(0, 2), 1u);
    EXPECT_EQ(g.productiveHops(0, 2), (std::vector<NodeId>{1}));
    // 0 -> 8 in Y: same tie, pinned to +Y.
    EXPECT_EQ(g.nextHop(0, 8), 4u);
    // Both dimensions tied: still one pinned candidate per dimension.
    EXPECT_EQ(g.productiveHops(0, 10), (std::vector<NodeId>{1, 4}));

    for (RoutingPolicy routing : allRoutingPolicies()) {
        NetworkParams p;
        p.topology = TopologyKind::Torus2D;
        p.routing = routing;
        ParallelScheduler sched(1, 16, networkLookahead(p).ticks);
        StatGroup &stats = sched.shardStats(0);
        RoutedNetwork net(sched, 16, p);
        unsigned arrived = 0;
        for (NodeId n = 0; n < 16; ++n)
            net.setSink(n, [&](const Message &) { ++arrived; });
        net.send(msg(MsgType::GetS, 0, 2));
        sched.runUntil(tickNever);
        EXPECT_EQ(arrived, 1u) << routingPolicyName(routing);
        // The pinned route is 0 -> 1 -> 2; the backward wrap must stay
        // untouched under every policy.
        EXPECT_EQ(stats.counterValue("net.linkMsgs.0-1"), 1u)
            << routingPolicyName(routing);
        EXPECT_EQ(stats.counterValue("net.linkMsgs.1-2"), 1u)
            << routingPolicyName(routing);
        EXPECT_EQ(stats.counterValue("net.linkMsgs.0-3"), 0u)
            << routingPolicyName(routing);
        EXPECT_EQ(stats.counterValue("net.linkMsgs.3-2"), 0u)
            << routingPolicyName(routing);
    }
}

TEST_F(RoutedNetworkTest, LocalDeliveryBypassesNetwork)
{
    ParallelScheduler sched(1, 16, networkLookahead(meshParams()).ticks);
    EventQueue &eq = sched.queueFor(0);
    RoutedNetwork net(sched, 16, meshParams());
    Tick arrived = 0;
    for (NodeId n = 0; n < 16; ++n)
        net.setSink(n, [&](const Message &) { arrived = eq.now(); });
    net.send(msg(MsgType::GetS, 5, 5));
    sched.runUntil(tickNever);
    EXPECT_EQ(arrived, 1u);
}

} // namespace
} // namespace ltp
