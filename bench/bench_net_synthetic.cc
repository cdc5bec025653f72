/**
 * @file
 * Synthetic-traffic driver for network-only studies: exercises the VC
 * router (credits, byte-based serialization, routing policies) without
 * the DSM stack, the way booksim/noxim-style sweeps characterize an
 * interconnect.
 *
 *   $ ./bench_net_synthetic [options]
 *     --nodes N       node count                       (default 64)
 *     --width W       mesh/torus X extent, 0 = square  (default 0)
 *     --depth D       input-buffer slots per (link,VC) (default 8)
 *     --cycles C      injection window in cycles       (default 12000)
 *     --warmup W      cycles excluded from measurement (default 3000)
 *     --topos ...     comma list: mesh,torus,ring      (default all)
 *     --policies ...  comma list: dor,adaptive,oblivious (default all)
 *     --patterns ...  comma list: uniform,hotspot,transpose,bitrev
 *     --rates ...     comma list of injection rates in msgs/node/cycle
 *                     (default 0.005,0.01,0.02,0.04,0.07,0.11)
 *
 * Traffic patterns (n nodes on a w x h layout):
 *  - uniform:   every message picks a destination uniformly at random;
 *  - hotspot:   20% of messages target the center node, rest uniform —
 *               the pattern where adaptive routing's ability to steer
 *               around the congested center shows up in saturation
 *               throughput;
 *  - transpose: (x, y) -> (y, x) on square layouts; on rings and
 *               non-square layouts the antipodal node (src + n/2) — the
 *               classic DOR-adversarial permutations;
 *  - bitrev:    bit-reversed node index (power-of-two n; otherwise the
 *               index mirrored as n-1-src).
 *
 * With the paper-calibrated 80-cycle hop, a link's bandwidth-delay
 * product is ~37 messages, so the default depth of 8 keeps the sweep in
 * the credit-limited regime where backpressure (and the policies'
 * response to it) dominates; raise --depth toward ~40 to study the
 * wire-limited regime instead.
 *
 * Injection is open-loop (unbounded source queues): each node draws
 * geometric inter-arrival gaps at the configured rate, so offered load
 * beyond saturation shows up as delivered throughput flattening and p99
 * latency exploding. Every run reports delivered msgs/node/cycle inside
 * the measurement window plus mean/p50/p99 latency of the delivered
 * messages; the summary table reports each configuration's saturation
 * throughput (the best delivered rate over the sweep).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "net/topo/routed_network.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace ltp;

namespace
{

enum class Pattern
{
    Uniform,
    Hotspot,
    Transpose,
    BitReversal,
};

const char *
patternName(Pattern p)
{
    switch (p) {
      case Pattern::Uniform: return "uniform";
      case Pattern::Hotspot: return "hotspot";
      case Pattern::Transpose: return "transpose";
      case Pattern::BitReversal: return "bitrev";
    }
    return "?";
}

struct Options
{
    NodeId nodes = 64;
    unsigned width = 0;
    unsigned depth = 8;
    Tick cycles = 12000;
    Tick warmup = 3000;
    std::vector<TopologyKind> topos = {TopologyKind::Mesh2D,
                                       TopologyKind::Torus2D,
                                       TopologyKind::Ring};
    std::vector<RoutingPolicy> policies = {RoutingPolicy::DimensionOrder,
                                           RoutingPolicy::MinimalAdaptive,
                                           RoutingPolicy::Oblivious};
    std::vector<Pattern> patterns = {Pattern::Uniform, Pattern::Hotspot,
                                     Pattern::Transpose,
                                     Pattern::BitReversal};
    std::vector<double> rates = {0.005, 0.01, 0.02, 0.04, 0.07, 0.11};
};

struct CellResult
{
    double offered = 0.0;   //!< msgs/node/cycle requested
    double delivered = 0.0; //!< msgs/node/cycle inside the window
    double latMean = 0.0;
    double latP50 = 0.0;
    double latP99 = 0.0;
};

/** Reverse the low @p bits of @p v. */
unsigned
bitReverse(unsigned v, unsigned bits)
{
    unsigned r = 0;
    for (unsigned i = 0; i < bits; ++i)
        r |= ((v >> i) & 1u) << (bits - 1 - i);
    return r;
}

NodeId
pickDestination(Pattern pattern, NodeId src, const TopologyGeometry &geom,
                Rng &rng)
{
    NodeId n = geom.numNodes();
    switch (pattern) {
      case Pattern::Uniform:
        return NodeId(rng.below(n));
      case Pattern::Hotspot: {
        if (rng.below(5) == 0)
            return geom.idOf(
                Coord{geom.width() / 2, geom.height() / 2});
        return NodeId(rng.below(n));
      }
      case Pattern::Transpose: {
        if (geom.width() == geom.height()) {
            Coord c = geom.coordOf(src);
            return geom.idOf(Coord{c.y, c.x});
        }
        return NodeId((src + n / 2) % n);
      }
      case Pattern::BitReversal: {
        unsigned bits = 0;
        while ((1u << bits) < n)
            ++bits;
        if ((1u << bits) == n)
            return NodeId(bitReverse(unsigned(src), bits));
        return NodeId(n - 1 - src);
      }
    }
    return src;
}

/** Geometric inter-arrival gap (>= 1 cycle) for Bernoulli rate @p rate. */
Tick
geometricGap(Rng &rng, double rate)
{
    double u = rng.uniform();
    return Tick(1 + std::floor(std::log1p(-u) / std::log1p(-rate)));
}

CellResult
runCell(const Options &opt, TopologyKind topo, RoutingPolicy policy,
        Pattern pattern, double rate, unsigned cell_seed)
{
    NetworkParams params;
    params.topology = topo;
    params.meshWidth = opt.width;
    params.routing = policy;
    params.vcDepth = opt.depth;
    ParallelScheduler sched(1, opt.nodes, networkLookahead(params).ticks);
    EventQueue &eq = sched.queueFor(0);
    RoutedNetwork net(sched, opt.nodes, params);
    const TopologyGeometry &geom = net.geometry();

    std::uint64_t deliveredInWindow = 0;
    Histogram lat(32.0, 4096);
    Tick windowEnd = opt.cycles;
    for (NodeId nid = 0; nid < opt.nodes; ++nid) {
        net.setSink(nid, [&, nid](const Message &m) {
            if (m.injectedAt >= opt.warmup && eq.now() <= windowEnd) {
                ++deliveredInWindow;
                lat.sample(double(eq.now() - m.injectedAt));
            }
        });
    }

    // Open-loop injectors: one self-rescheduling event chain per node.
    Rng rng(0x5EED0000ull + cell_seed);
    struct Injector
    {
        std::function<void(Tick)> scheduleNext;
    };
    std::vector<Injector> injectors(opt.nodes);
    for (NodeId src = 0; src < opt.nodes; ++src) {
        injectors[src].scheduleNext = [&, src](Tick at) {
            if (at >= opt.cycles)
                return;
            eq.scheduleAt(at, [&, src, at] {
                NodeId dst = pickDestination(pattern, src, geom, rng);
                if (dst != src) {
                    Message m;
                    m.type = MsgType::GetS;
                    m.src = src;
                    m.dst = dst;
                    m.addr = Addr(at);
                    net.send(m);
                }
                injectors[src].scheduleNext(at + geometricGap(rng, rate));
            });
        };
        injectors[src].scheduleNext(geometricGap(rng, rate));
    }

    // Injection stops at opt.cycles; in-flight traffic keeps draining,
    // but nothing past windowEnd is counted (saturated queues would
    // otherwise inflate the delivered rate after injection stops).
    sched.runUntil(tickNever);

    CellResult r;
    r.offered = rate;
    double windowCycles = double(opt.cycles - opt.warmup);
    r.delivered =
        double(deliveredInWindow) / (double(opt.nodes) * windowCycles);
    r.latMean = lat.mean();
    r.latP50 = lat.percentile(0.5);
    r.latP99 = lat.percentile(0.99);
    return r;
}

bool
splitList(const std::string &arg, std::vector<std::string> &out)
{
    out.clear();
    std::string cur;
    for (char c : arg) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return !out.empty();
}

int
usage(const char *msg)
{
    std::fprintf(stderr, "%s\n", msg);
    std::fprintf(
        stderr,
        "usage: bench_net_synthetic [--nodes N] [--width W] [--depth D]\n"
        "         [--cycles C] [--warmup W] [--topos mesh,torus,ring]\n"
        "         [--policies dor,adaptive,oblivious]\n"
        "         [--patterns uniform,hotspot,transpose,bitrev]\n"
        "         [--rates r1,r2,...]\n");
    return 1;
}

} // namespace

static int
run(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> items;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v;
        if (a == "--nodes" && (v = next())) {
            opt.nodes = NodeId(std::atoi(v));
        } else if (a == "--width" && (v = next())) {
            opt.width = unsigned(std::atoi(v));
        } else if (a == "--depth" && (v = next())) {
            opt.depth = unsigned(std::atoi(v));
        } else if (a == "--cycles" && (v = next())) {
            opt.cycles = Tick(std::atoll(v));
        } else if (a == "--warmup" && (v = next())) {
            opt.warmup = Tick(std::atoll(v));
        } else if (a == "--topos" && (v = next()) && splitList(v, items)) {
            opt.topos.clear();
            for (const auto &s : items) {
                auto k = parseTopologyKind(s);
                if (!k || *k == TopologyKind::PointToPoint)
                    return usage("topos must be routed kinds");
                opt.topos.push_back(*k);
            }
        } else if (a == "--policies" && (v = next()) &&
                   splitList(v, items)) {
            opt.policies.clear();
            for (const auto &s : items) {
                auto p = parseRoutingPolicy(s);
                if (!p)
                    return usage("unknown routing policy");
                opt.policies.push_back(*p);
            }
        } else if (a == "--patterns" && (v = next()) &&
                   splitList(v, items)) {
            opt.patterns.clear();
            for (const auto &s : items) {
                if (s == "uniform")
                    opt.patterns.push_back(Pattern::Uniform);
                else if (s == "hotspot")
                    opt.patterns.push_back(Pattern::Hotspot);
                else if (s == "transpose")
                    opt.patterns.push_back(Pattern::Transpose);
                else if (s == "bitrev")
                    opt.patterns.push_back(Pattern::BitReversal);
                else
                    return usage("unknown traffic pattern");
            }
        } else if (a == "--rates" && (v = next()) && splitList(v, items)) {
            opt.rates.clear();
            for (const auto &s : items) {
                double r = std::atof(s.c_str());
                // geometricGap() needs a Bernoulli probability strictly
                // inside (0, 1).
                if (!(r > 0.0 && r < 1.0))
                    return usage("rates must be in (0, 1) msgs/node/cycle");
                opt.rates.push_back(r);
            }
        } else {
            return usage(("unknown argument '" + a + "'").c_str());
        }
    }
    if (opt.nodes < 2 || opt.warmup >= opt.cycles)
        return usage("need >= 2 nodes and warmup < cycles");

    {
        TopologyGeometry g(opt.topos.front(), opt.nodes, opt.width);
        std::printf("# synthetic traffic: %u nodes (%u x %u), vcDepth=%u, "
                    "%llu cycles (%llu warmup), open-loop injection\n",
                    unsigned(opt.nodes), g.width(), g.height(), opt.depth,
                    (unsigned long long)opt.cycles,
                    (unsigned long long)opt.warmup);
    }

    struct SummaryRow
    {
        TopologyKind topo;
        RoutingPolicy policy;
        Pattern pattern;
        double saturation = 0.0;
        double lowLoadP50 = 0.0;
        double lowLoadP99 = 0.0;
    };
    std::vector<SummaryRow> summary;

    unsigned cell_seed = 0;
    for (TopologyKind topo : opt.topos) {
        for (RoutingPolicy policy : opt.policies) {
            for (Pattern pattern : opt.patterns) {
                std::printf("\n== %s / %s / %s ==\n",
                            topologyKindName(topo),
                            routingPolicyName(policy),
                            patternName(pattern));
                std::printf("%9s %11s | %9s %7s %7s\n", "offered",
                            "delivered", "latMean", "p50", "p99");
                SummaryRow row{topo, policy, pattern, 0.0, 0.0, 0.0};
                for (std::size_t ri = 0; ri < opt.rates.size(); ++ri) {
                    CellResult r = runCell(opt, topo, policy, pattern,
                                           opt.rates[ri], cell_seed++);
                    std::printf("%9.3f %11.4f | %9.1f %7.0f %7.0f\n",
                                r.offered, r.delivered, r.latMean,
                                r.latP50, r.latP99);
                    row.saturation = std::max(row.saturation, r.delivered);
                    if (ri == 0) {
                        row.lowLoadP50 = r.latP50;
                        row.lowLoadP99 = r.latP99;
                    }
                }
                summary.push_back(row);
            }
        }
    }

    std::printf("\n== saturation throughput (delivered msgs/node/cycle, "
                "best over the rate sweep) ==\n");
    std::printf("%-6s %-9s %-9s | %10s | %7s %7s\n", "topo", "routing",
                "pattern", "saturation", "p50@low", "p99@low");
    for (const SummaryRow &row : summary) {
        std::printf("%-6s %-9s %-9s | %10.4f | %7.0f %7.0f\n",
                    topologyKindName(row.topo),
                    routingPolicyName(row.policy),
                    patternName(row.pattern), row.saturation,
                    row.lowLoadP50, row.lowLoadP99);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return ltp::bench::guardedMain("bench_net_synthetic",
                                   [&] { return run(argc, argv); });
}
