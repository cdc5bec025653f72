/**
 * @file
 * Observability (src/obs/): the observer-only contract.
 *
 * Tracing and metrics sampling must never perturb the simulation —
 * stats dumps are byte-identical with them on or off — while the trace
 * file must actually contain all five category groups and the metrics
 * stream must follow its JSONL schema and be the same at every shard
 * count. Plus unit coverage for the category taxonomy parser.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "dsm/system.hh"
#include "kernel/kernels.hh"
#include "obs/categories.hh"
#include "obs/obs_params.hh"

namespace ltp
{
namespace
{

// ---- category taxonomy -------------------------------------------------

TEST(ObsCategories, NamesRoundTrip)
{
    for (unsigned i = 0; i < obs::numCats; ++i) {
        auto cat = obs::Cat(i);
        EXPECT_EQ(obs::parseCat(obs::catName(cat)), cat);
    }
}

TEST(ObsCategories, ParseMaskAllAndLists)
{
    EXPECT_EQ(obs::parseCategoryMask("all"), obs::allCatsMask);
    // Empty list = no categories (an empty LTP_TRACE_CATS silences the
    // tracer; leaving the variable unset keeps the all-categories
    // default).
    EXPECT_EQ(obs::parseCategoryMask(""), 0u);
    EXPECT_EQ(obs::parseCategoryMask("link"),
              obs::catBit(obs::Cat::Link));
    EXPECT_EQ(obs::parseCategoryMask("link,engine"),
              obs::catBit(obs::Cat::Link) |
                  obs::catBit(obs::Cat::Engine));
}

TEST(ObsCategories, ParseMaskRejectsUnknownTokensLoudly)
{
    try {
        obs::parseCategoryMask("link,bogus");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // The message must name the offending token and the valid ones.
        EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("link"), std::string::npos);
    }
}

TEST(ObsParams, DefaultIsEverythingOff)
{
    obs::ObsParams p;
    EXPECT_FALSE(p.traceEnabled());
    EXPECT_FALSE(p.metricsEnabled());
    EXPECT_FALSE(p.anyEnabled());
}

// ---- end-to-end: observer-only tracing + metrics -----------------------

struct ObsRun
{
    std::string dump;
    bool completed = false;
};

/** One em3d run, Passive LTP on a 16-node mesh so every category has
 *  traffic and the engine shards for real. */
ObsRun
runEm3d(unsigned threads, const obs::ObsParams &obs_params)
{
    SystemParams sp = SystemParams::withPredictor(
        PredictorKind::LtpPerBlock, PredictorMode::Passive);
    sp.numNodes = 16;
    sp.net.topology = TopologyKind::Mesh2D;
    sp.simThreads = threads;
    sp.obs = obs_params;

    DsmSystem sys(sp);
    auto kernel = makeKernel("em3d");
    KernelConfig cfg = defaultConfig("em3d");
    cfg.nodes = sp.numNodes;
    RunResult r = sys.run(*kernel, cfg);

    ObsRun out;
    out.completed = r.completed;
    std::ostringstream oss;
    sys.stats().dump(oss);
    out.dump = oss.str();
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

TEST(ObsEndToEnd, ObserverOnlyAndTraceHasAllCategories)
{
    std::string dir = ::testing::TempDir();
    obs::ObsParams on;
    on.traceFile = dir + "/obs_test_trace.json";
    on.metricsFile = dir + "/obs_test_metrics.jsonl";
    on.metricsIntervalTicks = 5000;

    ObsRun plain = runEm3d(2, obs::ObsParams{});
    ObsRun traced = runEm3d(2, on);
    ASSERT_TRUE(plain.completed);
    ASSERT_TRUE(traced.completed);

    // The whole point: tracing + metrics change NOTHING observable.
    EXPECT_EQ(plain.dump, traced.dump);

    // All five category groups made it into the trace file.
    std::string trace = slurp(on.traceFile);
    ASSERT_FALSE(trace.empty());
    for (const char *cat :
         {"message", "link", "directory", "predictor", "engine"}) {
        EXPECT_NE(trace.find("\"cat\":\"" + std::string(cat) + "\""),
                  std::string::npos)
            << "category missing from trace: " << cat;
    }
    EXPECT_NE(trace.find("\"dropped\":"), std::string::npos);
    EXPECT_NE(trace.find("\"traceEvents\":"), std::string::npos);

    // Metrics: one JSON object per line, tick strictly increasing.
    std::ifstream metrics(on.metricsFile);
    ASSERT_TRUE(metrics.good());
    std::string line;
    unsigned lines = 0;
    long long prev_tick = -1;
    while (std::getline(metrics, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"tick\":"), std::string::npos);
        EXPECT_NE(line.find("\"counters\":"), std::string::npos);
        long long tick = std::atoll(line.c_str() + line.find(':') + 1);
        EXPECT_GT(tick, prev_tick);
        prev_tick = tick;
        ++lines;
    }
    // em3d at 16 nodes runs >> one interval; expect several samples.
    EXPECT_GE(lines, 2u);

    std::remove(on.traceFile.c_str());
    std::remove(on.metricsFile.c_str());
}

TEST(ObsEndToEnd, MetricsAreByteIdenticalAcrossShardCounts)
{
    // Samples follow due ticks at every shard count: the first event at
    // or after each due tick, read from the merged statistics. The
    // direct-dispatch engine (1 shard) and the staged engine (2, 4)
    // pick the same ticks, so the JSONL stream must match byte for
    // byte.
    std::string dir = ::testing::TempDir();
    std::string first;
    for (unsigned threads : {1u, 2u, 4u}) {
        obs::ObsParams on;
        on.metricsFile = dir + "/obs_test_metrics_s" +
                         std::to_string(threads) + ".jsonl";
        on.metricsIntervalTicks = 5000;
        ObsRun run = runEm3d(threads, on);
        ASSERT_TRUE(run.completed) << threads;
        std::string metrics = slurp(on.metricsFile);
        std::remove(on.metricsFile.c_str());
        EXPECT_NE(metrics.find("\"tick\":"), std::string::npos);
        if (threads == 1)
            first = metrics;
        else
            EXPECT_EQ(metrics, first) << "shards " << threads;
    }
}

TEST(ObsEndToEnd, CategoryMaskRestrictsTraceOutput)
{
    std::string dir = ::testing::TempDir();
    obs::ObsParams on;
    on.traceFile = dir + "/obs_test_linkonly.json";
    on.tracerCategories = obs::catBit(obs::Cat::Link);

    ObsRun traced = runEm3d(1, on);
    ASSERT_TRUE(traced.completed);
    std::string trace = slurp(on.traceFile);
    EXPECT_NE(trace.find("\"cat\":\"link\""), std::string::npos);
    for (const char *cat : {"message", "directory", "predictor", "engine"})
        EXPECT_EQ(trace.find("\"cat\":\"" + std::string(cat) + "\""),
                  std::string::npos)
            << "masked category leaked into trace: " << cat;
    std::remove(on.traceFile.c_str());
}

} // namespace
} // namespace ltp
