/**
 * @file
 * Regression tests for the batched link drain: a congested link's drain
 * event retires its whole same-tick eligible queue in one callback
 * (net/topo/routed_network.cc, drainLink), which must be invisible —
 * grant outcomes, ticks and VC choices identical to granting one
 * message per event.
 *
 * Pinned here:
 *  - pairwise FIFO and exactly-once delivery on a deliberately
 *    congested bounded-VC mesh (depth 1: every grant is credit-gated,
 *    so batches hit the credit-exhausted and virtual-time stop rules);
 *  - credit conservation after the drain;
 *  - byte-identical stats dumps at shards {1, 2, 4} for a full DSM run
 *    over the same bounded-VC mesh — the strongest available oracle,
 *    since every delivery tick feeds the protocol's timing.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dsm/system.hh"
#include "kernel/kernels.hh"
#include "net/topo/routed_network.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace ltp
{
namespace
{

TEST(BatchedDrain, CongestedBoundedMeshKeepsPairwiseFifo)
{
    // 16-node mesh, depth-1 VCs, every sender bursting at one hotspot:
    // links toward node 5 queue tens of messages deep, so each drain
    // event sees a long eligible run and must stop exactly where the
    // unbatched engine would have re-arbitrated.
    constexpr NodeId kNodes = 16;
    constexpr int kMessages = 500;
    NetworkParams params;
    params.topology = TopologyKind::Mesh2D;
    params.routing = RoutingPolicy::DimensionOrder;
    params.vcDepth = 1;
    ParallelScheduler sched(1, kNodes, networkLookahead(params).ticks);
    EventQueue &eq = sched.queueFor(0);
    RoutedNetwork net(sched, kNodes, params);
    ASSERT_TRUE(net.bounded());

    using Pair = std::pair<NodeId, NodeId>;
    std::map<Pair, std::vector<Addr>> sent, received;
    for (NodeId n = 0; n < kNodes; ++n)
        net.setSink(n, [&received, n](const Message &m) {
            ASSERT_EQ(m.dst, n);
            received[{m.src, m.dst}].push_back(m.addr);
        });

    Rng rng(0xBA7C4);
    for (int i = 0; i < kMessages; ++i) {
        Message m;
        m.type = rng.below(2) ? MsgType::DataX : MsgType::GetS;
        m.src = NodeId(rng.below(kNodes));
        m.dst = rng.below(2) ? NodeId(5) : NodeId(rng.below(kNodes));
        m.addr = Addr(i);
        eq.scheduleAt(rng.below(200), [&sent, &net, m] {
            sent[{m.src, m.dst}].push_back(m.addr);
            net.send(m);
        });
    }
    sched.runUntil(tickNever);

    std::size_t delivered = 0;
    for (const auto &[pair, tags] : sent) {
        auto it = received.find(pair);
        ASSERT_NE(it, received.end()) << pair.first << "->" << pair.second;
        EXPECT_EQ(it->second, tags) << pair.first << "->" << pair.second
                                    << " reordered under congestion";
        delivered += it->second.size();
    }
    EXPECT_EQ(delivered, std::size_t(kMessages));

    // The batch's virtual-time credit view is a lower bound, never a
    // leak: once drained, every credit is back at the configured depth.
    for (std::size_t l = 0; l < net.numLinks(); ++l)
        for (unsigned vc = 0; vc < net.numVcs(); ++vc)
            EXPECT_EQ(net.creditsAvailable(l, vc), 1u)
                << "link " << l << " vc " << vc;
}

std::string
dumpOf(const std::string &kernel_name, unsigned threads, unsigned depth)
{
    SystemParams sp;
    sp.numNodes = 16;
    sp.net.topology = TopologyKind::Mesh2D;
    sp.net.routing = RoutingPolicy::DimensionOrder;
    sp.net.vcDepth = depth;
    sp.simThreads = threads;

    DsmSystem sys(sp);
    auto kernel = makeKernel(kernel_name);
    KernelConfig cfg = defaultConfig(kernel_name);
    cfg.nodes = 16;
    RunResult r = sys.run(*kernel, cfg);
    EXPECT_TRUE(r.completed) << kernel_name << " t" << threads;

    std::ostringstream oss;
    sys.stats().dump(oss);
    return oss.str();
}

TEST(BatchedDrain, BoundedVcRunIsByteIdenticalAcrossShardCounts)
{
    // Depth-2 VCs keep the mesh credit-limited for the whole run; any
    // batched grant that differs from the unbatched engine's choice
    // shifts delivery ticks and shows up as a diverging stats dump.
    std::string s1 = dumpOf("ocean", 1, 2);
    std::string s2 = dumpOf("ocean", 2, 2);
    std::string s4 = dumpOf("ocean", 4, 2);
    EXPECT_EQ(s1, s2) << "shard count changed a bounded-VC run";
    EXPECT_EQ(s1, s4) << "shard count changed a bounded-VC run";
}

} // namespace
} // namespace ltp
