/**
 * @file
 * Whole-system integration tests: construction, run-once semantics,
 * deterministic replay, and the Table 1 latency calibration measured
 * end to end.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "dsm/experiment.hh"

namespace ltp
{
namespace
{

TEST(SystemParams, PredictorFactoryNames)
{
    EXPECT_STREQ(predictorKindName(PredictorKind::Base), "base");
    EXPECT_STREQ(predictorKindName(PredictorKind::Dsi), "dsi");
    EXPECT_STREQ(predictorKindName(PredictorKind::LastPc), "last-pc");
    EXPECT_STREQ(predictorKindName(PredictorKind::LtpPerBlock), "ltp");
    EXPECT_STREQ(predictorKindName(PredictorKind::LtpGlobal),
                 "ltp-global");
}

TEST(SystemParams, BaseForcesModeOff)
{
    auto p = SystemParams::withPredictor(PredictorKind::Base,
                                         PredictorMode::Active);
    EXPECT_EQ(p.mode, PredictorMode::Off);
}

TEST(SystemParams, Table1Defaults)
{
    SystemParams p;
    EXPECT_EQ(p.numNodes, 32u);
    EXPECT_EQ(p.cache.blockSize, 32u);
    EXPECT_EQ(p.dir.memAccess, 104u);
    EXPECT_EQ(p.net.flightLatency, 80u);
    EXPECT_TRUE(p.dir.pipelined);
}

TEST(SimThreads, ParseAcceptsExactDecimalInRange)
{
    EXPECT_EQ(parseSimThreads("1"), 1u);
    EXPECT_EQ(parseSimThreads("2"), 2u);
    EXPECT_EQ(parseSimThreads("64"), 64u);
    EXPECT_EQ(parseSimThreads("256"), 256u); // maxSimThreads, inclusive
}

TEST(SimThreads, ParseRejectsGarbageLoudly)
{
    // A typo'd LTP_SIM_THREADS must fail the run, never silently fall
    // back to one thread.
    for (const char *bad : {"", "0", "257", "2000000", "-1", "two",
                            "2x", " 2", "2 ", "0x4", "+4", "4.0"}) {
        EXPECT_THROW(parseSimThreads(bad), std::invalid_argument)
            << "accepted \"" << bad << '"';
    }
}

TEST(SimThreads, SystemRejectsOutOfRangeThreadCounts)
{
    SystemParams zero;
    zero.simThreads = 0;
    EXPECT_THROW(DsmSystem{zero}, std::invalid_argument);

    SystemParams absurd;
    absurd.simThreads = maxSimThreads + 1;
    EXPECT_THROW(DsmSystem{absurd}, std::invalid_argument);

    SystemParams max_ok;
    max_ok.simThreads = maxSimThreads; // clamped to numNodes by the plan
    EXPECT_NO_THROW(DsmSystem{max_ok});
}

TEST(DsmSystem, RejectsNodeCountsTheDirectoryMasksCannotHold)
{
    // Node 64 would alias node 0 in every sharer and verification mask.
    for (NodeId nodes : {NodeId(0), maxNodes + 1}) {
        SystemParams p;
        p.numNodes = nodes;
        EXPECT_THROW(DsmSystem{p}, std::invalid_argument) << nodes;
    }
    SystemParams max_ok;
    max_ok.numNodes = maxNodes;
    EXPECT_NO_THROW(DsmSystem{max_ok});
}

TEST(DsmSystem, ZeroLookaheadConfigurationsThrow)
{
    // The engine's windows need at least one tick between every
    // cross-node cause and effect, at any thread count.
    SystemParams instant_net;
    instant_net.net.flightLatency = 0;
    instant_net.net.controlOccupancy = 0;
    EXPECT_THROW(DsmSystem{instant_net}, std::invalid_argument);

    SystemParams instant_barrier;
    instant_barrier.barrierLatency = 0;
    instant_barrier.simThreads = 2;
    EXPECT_THROW(DsmSystem{instant_barrier}, std::invalid_argument);
}

TEST(DsmSystem, RunTwiceThrows)
{
    DsmSystem sys(SystemParams::base());
    auto k = makeKernel("em3d");
    KernelConfig cfg = defaultConfig("em3d");
    cfg.iters = 1;
    sys.run(*k, cfg);
    auto k2 = makeKernel("em3d");
    EXPECT_THROW(sys.run(*k2, cfg), std::logic_error);
}

TEST(DsmSystem, RunEndsWhenItsLastEnginePassDoes)
{
    // This run's last action is a DSI flush served by its home
    // directory, whose engine stays busy for half the flush's 110-cycle
    // service after the last event has run. The run ends when that
    // occupancy does.
    SystemParams sp = SystemParams::withPredictor(PredictorKind::Dsi,
                                                  PredictorMode::Active);
    sp.numNodes = 4;
    DsmSystem sys(sp);
    auto k = makeKernel("em3d");
    KernelConfig cfg = defaultConfig("em3d");
    cfg.nodes = sp.numNodes;
    cfg.iters = scaleIterations(cfg.iters, 0.05);
    RunResult r = sys.run(*k, cfg);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.cycles, 56689u);
    EXPECT_EQ(sys.scheduler().now() + 55, r.cycles);
}

TEST(DsmSystem, DeterministicReplay)
{
    auto run_once = [] {
        ExperimentSpec spec;
        spec.kernel = "tomcatv";
        spec.predictor = PredictorKind::LtpPerBlock;
        spec.mode = PredictorMode::Passive;
        spec.iterScale = 0.25;
        return runExperiment(spec);
    };
    RunResult a = run_once();
    RunResult b = run_once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.predicted, b.predicted);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
    EXPECT_EQ(a.memOps, b.memOps);
}

TEST(DsmSystem, DifferentSeedsDifferentTraffic)
{
    auto run_seed = [](std::uint64_t seed) {
        SystemParams sp;
        KernelConfig cfg = defaultConfig("barnes");
        cfg.iters = 3;
        cfg.seed = seed;
        cfg.nodes = sp.numNodes;
        DsmSystem sys(sp);
        auto k = makeKernel("barnes");
        return sys.run(*k, cfg);
    };
    RunResult a = run_seed(1);
    RunResult b = run_seed(2);
    EXPECT_NE(a.invalidations, b.invalidations);
}

TEST(DsmSystem, UnknownKernelThrows)
{
    EXPECT_THROW(makeKernel("does-not-exist"), std::invalid_argument);
    EXPECT_THROW(defaultConfig("does-not-exist"), std::invalid_argument);
}

TEST(DsmSystem, AllKernelNamesInstantiable)
{
    for (const auto &name : allKernelNames()) {
        auto k = makeKernel(name);
        EXPECT_EQ(k->name(), name);
        EXPECT_FALSE(describeConfig(name, defaultConfig(name)).empty());
    }
}

TEST(Experiment, IterScaleShortensRun)
{
    ExperimentSpec full;
    full.kernel = "em3d";
    full.iterScale = 0.25;
    RunResult quarter = runExperiment(full);
    full.iterScale = 0.5;
    RunResult half = runExperiment(full);
    EXPECT_LT(quarter.cycles, half.cycles);
}

TEST(Experiment, ScaleIterationsRoundsAndRejectsBadScales)
{
    EXPECT_EQ(scaleIterations(40, 1.0), 40u);
    EXPECT_EQ(scaleIterations(40, 0.3), 12u);
    EXPECT_EQ(scaleIterations(40, 0.001), 1u); // never below one
    // A negative scale once wrapped to about 4.3 billion iterations.
    for (double bad : {-1.0, 0.0, std::nan(""), HUGE_VAL, 1e30}) {
        EXPECT_THROW(scaleIterations(40, bad), std::invalid_argument)
            << bad;
    }
}

TEST(Experiment, NodeOverrideWorks)
{
    ExperimentSpec spec;
    spec.kernel = "em3d";
    spec.iterScale = 0.25;
    spec.nodes = 8;
    RunResult r = runExperiment(spec);
    EXPECT_TRUE(r.completed);
}

TEST(Experiment, FullStackRunsOnBoundedAdaptiveNetwork)
{
    // End-to-end protocol correctness over the hardest network
    // configuration: adaptive routing (in-flight reordering, restored by
    // the ingress reorder buffer) plus finite buffers (credit
    // backpressure and escape re-routing). The run must complete, and
    // identical specs must replay identically.
    auto run_once = [] {
        ExperimentSpec spec;
        spec.kernel = "unstructured";
        spec.predictor = PredictorKind::LtpPerBlock;
        spec.mode = PredictorMode::Active;
        spec.nodes = 16;
        NetworkParams net;
        net.topology = TopologyKind::Mesh2D;
        net.routing = RoutingPolicy::MinimalAdaptive;
        net.vcDepth = 2;
        spec.net = net;
        return runExperiment(spec);
    };
    RunResult a = run_once();
    EXPECT_TRUE(a.completed);
    EXPECT_GT(a.netMsgs, 0u);
    RunResult b = run_once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.netMsgs, b.netMsgs);
    EXPECT_EQ(a.selfInvsIssued, b.selfInvsIssued);
}

TEST(Experiment, SpeedupResultRatio)
{
    SpeedupResult s;
    s.base.cycles = 1100;
    s.pred.cycles = 1000;
    EXPECT_NEAR(s.speedup(), 1.1, 1e-9);
}

TEST(RunResult, FractionsAndTimeliness)
{
    RunResult r;
    r.invalidations = 200;
    r.predicted = 150;
    r.notPredicted = 50;
    r.mispredicted = 10;
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.75);
    EXPECT_DOUBLE_EQ(r.mispredictionRate(), 0.05);
    r.selfInvTimelyCorrect = 90;
    r.selfInvLateCorrect = 10;
    EXPECT_DOUBLE_EQ(r.timeliness(), 0.9);
}

} // namespace
} // namespace ltp
