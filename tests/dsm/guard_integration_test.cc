/**
 * @file
 * End-to-end guard-subsystem behavior on the real machine: the wedge
 * regression (a fault-injected barrier wedge must be caught by the
 * watchdog within its budget, with a flight record left behind), the
 * observer-only contract of the invariant checkers, the shard-count
 * invariance of deterministic fault injection, the structured abort
 * outcomes for budget violations, and two observed runs side by side
 * in one process.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>

#include "dsm/system.hh"
#include "kernel/kernels.hh"
#include "obs/categories.hh"

namespace ltp
{
namespace
{

struct RunOutput
{
    std::string dump; //!< full canonical stats dump
    Tick cycles = 0;
    std::uint64_t events = 0;
    bool completed = false;
    RunOutcome outcome = RunOutcome::Completed;
    std::string abortReason;
    unsigned shards = 0;
};

RunOutput
runGuarded(const guard::GuardParams &guard_params, unsigned threads,
           TopologyKind topo = TopologyKind::Mesh2D,
           RoutingPolicy routing = RoutingPolicy::DimensionOrder,
           NodeId nodes = 8, double iter_scale = 1.0,
           Tick max_ticks = 0)
{
    SystemParams sp;
    sp.numNodes = nodes;
    sp.net.topology = topo;
    sp.net.routing = routing;
    sp.simThreads = threads;
    sp.guard = guard_params;
    if (max_ticks)
        sp.maxTicks = max_ticks;

    DsmSystem sys(sp);
    auto kernel = makeKernel("em3d");
    KernelConfig cfg = defaultConfig("em3d");
    cfg.nodes = nodes;
    if (iter_scale != 1.0)
        cfg.iters = std::max(1u, unsigned(cfg.iters * iter_scale));
    RunResult r = sys.run(*kernel, cfg);

    RunOutput out;
    std::ostringstream oss;
    sys.stats().dump(oss);
    out.dump = oss.str();
    out.cycles = r.cycles;
    out.events = r.eventsExecuted;
    out.completed = r.completed;
    out.outcome = r.outcome;
    out.abortReason = r.abortReason;
    out.shards = sys.shardPlan().shards;
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/**
 * The acceptance regression: a 2-shard run whose shard 1 stops arriving
 * at the window barrier must be detected by the barrier-stall detector
 * within its budget, abort with a structured reason, and leave a flight
 * record — instead of hanging the harness forever.
 */
TEST(GuardIntegration, WatchdogCatchesAFaultInjectedBarrierWedge)
{
    const char *tmpdir = std::getenv("TMPDIR");
    std::string flight = std::string(tmpdir ? tmpdir : "/tmp") +
                         "/ltp_guard_integration_wedge.json";
    std::remove(flight.c_str());

    guard::GuardParams gp;
    gp.faultSpec = "barrier-wedge:round=5,shard=1";
    gp.barrierStallMs = 150;
    gp.noProgressMs = 2000; // backstop; the stall detector must win
    gp.flightRecorderFile = flight;

    auto t0 = std::chrono::steady_clock::now();
    RunOutput r = runGuarded(gp, 2, TopologyKind::PointToPoint,
                             RoutingPolicy::DimensionOrder, 8, 0.05);
    auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);

    ASSERT_EQ(r.shards, 2u) << "wedge needs the staged parallel engine";
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::Aborted);
    EXPECT_NE(r.abortReason.find("barrier stall"), std::string::npos)
        << r.abortReason;
    // Detection budget is 150 ms; everything else (model build, the 5
    // healthy rounds, teardown) fits in the slack many times over.
    EXPECT_LT(wall.count(), 10000) << "watchdog missed its budget";

    std::string dump = slurp(flight);
    EXPECT_NE(dump.find("barrier stall"), std::string::npos)
        << "flight record must carry the abort reason: " << dump;
    EXPECT_NE(dump.find("\"barrier\": {"), std::string::npos) << dump;
    std::remove(flight.c_str());
}

/**
 * Observer-only contract: arming every invariant checker must complete
 * the run (no false positives at quiesce) and keep the stats dump
 * byte-identical to the unguarded run.
 */
TEST(GuardIntegration, ArmedCheckersAreObserverOnly)
{
    RunOutput plain = runGuarded(guard::GuardParams{}, 2,
                                 TopologyKind::Mesh2D,
                                 RoutingPolicy::MinimalAdaptive);

    guard::GuardParams gp;
    gp.checkMask = obs::allCatsMask;
    RunOutput checked = runGuarded(gp, 2, TopologyKind::Mesh2D,
                                   RoutingPolicy::MinimalAdaptive);

    EXPECT_TRUE(plain.completed);
    EXPECT_TRUE(checked.completed) << checked.abortReason;
    EXPECT_EQ(checked.outcome, RunOutcome::Completed);
    EXPECT_EQ(plain.cycles, checked.cycles);
    EXPECT_EQ(plain.events, checked.events);
    EXPECT_EQ(plain.dump, checked.dump)
        << "LTP_CHECK must not perturb results";
}

/**
 * Fault determinism: link-stall decisions are per-site counter-based,
 * so a fault-injected run is byte-identical across shard counts (while
 * genuinely differing from the fault-free run).
 */
TEST(GuardIntegration, LinkStallFaultIsShardCountInvariant)
{
    guard::GuardParams gp;
    gp.faultSpec = "link-stall:p=0.2,extra=16,seed=7";

    RunOutput s1 = runGuarded(gp, 1);
    RunOutput s2 = runGuarded(gp, 2);
    ASSERT_EQ(s2.shards, 2u);
    EXPECT_TRUE(s1.completed);
    EXPECT_TRUE(s2.completed);
    EXPECT_EQ(s1.cycles, s2.cycles);
    EXPECT_EQ(s1.events, s2.events);
    EXPECT_EQ(s1.dump, s2.dump)
        << "fault-injected runs must stay shard-count invariant";

    RunOutput clean = runGuarded(guard::GuardParams{}, 1);
    EXPECT_NE(clean.cycles, s1.cycles)
        << "link-stall must actually perturb virtual time";
}

/** Host-side stress faults must not change results at all. */
TEST(GuardIntegration, HostSideFaultsAreByteIdentical)
{
    RunOutput clean = runGuarded(guard::GuardParams{}, 2);

    guard::GuardParams storm;
    storm.faultSpec = "spill-storm;cal-overflow:period=2";
    RunOutput stressed = runGuarded(storm, 2);

    EXPECT_TRUE(stressed.completed) << stressed.abortReason;
    EXPECT_EQ(clean.cycles, stressed.cycles);
    EXPECT_EQ(clean.dump, stressed.dump)
        << "spill-storm/cal-overflow are host-side only";
}

/** A retired-event budget aborts with a structured reason. */
TEST(GuardIntegration, EventBudgetAbortsWithStructuredReason)
{
    guard::GuardParams gp;
    gp.maxEvents = 500;

    RunOutput r = runGuarded(gp, 1);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::Aborted);
    EXPECT_NE(r.abortReason.find("event budget"), std::string::npos)
        << r.abortReason;
}

/** The legacy maxTicks safety net now reports a structured outcome. */
TEST(GuardIntegration, MaxTicksReportsAbortedOutcome)
{
    RunOutput r = runGuarded(guard::GuardParams{}, 1,
                             TopologyKind::Mesh2D,
                             RoutingPolicy::DimensionOrder, 8, 1.0,
                             /*max_ticks=*/5000);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::Aborted);
    EXPECT_NE(r.abortReason.find("maxTicks exceeded"), std::string::npos)
        << r.abortReason;
}

/** What one 16-node mesh run leaves behind. */
struct MeshRun
{
    std::string dump;  //!< full canonical stats dump
    std::string error; //!< what went wrong; empty for a completed run
};

/**
 * Build and run @p kernel_name on a 16-node mesh at one shard with
 * @p obs_params and @p guard_params. With @p ready set, the built
 * system waits there before its run, so two threads run together.
 */
MeshRun
runMesh16(const std::string &kernel_name, const obs::ObsParams &obs_params,
          const guard::GuardParams &guard_params,
          std::latch *ready = nullptr)
{
    MeshRun out;
    bool arrived = false;
    try {
        SystemParams sp;
        sp.numNodes = 16;
        sp.net.topology = TopologyKind::Mesh2D;
        sp.obs = obs_params;
        sp.guard = guard_params;
        DsmSystem sys(sp);
        auto kernel = makeKernel(kernel_name);
        KernelConfig cfg = defaultConfig(kernel_name);
        cfg.nodes = sp.numNodes;
        if (ready) {
            ready->arrive_and_wait();
            arrived = true;
        }
        RunResult r = sys.run(*kernel, cfg);
        if (!r.completed)
            out.error = r.abortReason;
        std::ostringstream oss;
        sys.stats().dump(oss);
        out.dump = oss.str();
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    if (ready && !arrived)
        ready->count_down();
    return out;
}

/**
 * Two runs side by side in one process: each run owns its tracer,
 * checkers, fault plan and flight recorder, so neither sees the other.
 * Run A traces, checks everything and detours every third event through
 * the calendar overflow heap; run B observes nothing but keeps a flight
 * recorder. Each must match its solo run byte for byte (one shard has
 * no host-timed trace records), and neither recorder may dump.
 */
TEST(GuardIntegration, TwoRunsAtOnceKeepTheirObserversApart)
{
    const char *tmpdir = std::getenv("TMPDIR");
    std::string dir = std::string(tmpdir ? tmpdir : "/tmp");
    std::string soloTrace = dir + "/ltp_two_runs_trace_solo.json";
    std::string sideTrace = dir + "/ltp_two_runs_trace_side.json";

    obs::ObsParams traced;
    guard::GuardParams checked;
    checked.checkMask = obs::allCatsMask;
    checked.faultSpec = "cal-overflow:period=3";
    checked.flightRecorderFile = dir + "/ltp_two_runs_fr_a.json";
    guard::GuardParams quiet;
    quiet.flightRecorderFile = dir + "/ltp_two_runs_fr_b.json";
    for (const std::string &f :
         {soloTrace, sideTrace, checked.flightRecorderFile,
          quiet.flightRecorderFile})
        std::remove(f.c_str());

    traced.traceFile = soloTrace;
    MeshRun soloA = runMesh16("em3d", traced, checked);
    MeshRun soloB = runMesh16("ocean", obs::ObsParams{}, quiet);
    ASSERT_EQ(soloA.error, "");
    ASSERT_EQ(soloB.error, "");
    std::string expectTrace = slurp(soloTrace);
    ASSERT_NE(expectTrace.find("\"cat\":\"message\""), std::string::npos);

    traced.traceFile = sideTrace;
    std::latch ready(2);
    MeshRun a, b;
    std::thread runA(
        [&] { a = runMesh16("em3d", traced, checked, &ready); });
    std::thread runB(
        [&] { b = runMesh16("ocean", obs::ObsParams{}, quiet, &ready); });
    runA.join();
    runB.join();

    EXPECT_EQ(a.error, "");
    EXPECT_EQ(b.error, "");
    EXPECT_TRUE(a.dump == soloA.dump) << "run A's stats moved";
    EXPECT_TRUE(b.dump == soloB.dump) << "run B's stats moved";
    EXPECT_TRUE(slurp(sideTrace) == expectTrace)
        << "run A's trace differs from its solo trace";
    EXPECT_FALSE(std::ifstream(checked.flightRecorderFile).good());
    EXPECT_FALSE(std::ifstream(quiet.flightRecorderFile).good());
    std::remove(soloTrace.c_str());
    std::remove(sideTrace.c_str());
}

} // namespace
} // namespace ltp
