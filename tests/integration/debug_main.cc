// Ad-hoc diagnostic driver (not a test): runs one kernel and dumps stats.
//
//   ltp_debug [kernel] [iterScale] [nodes] [pred] [mode] [topo] [routing]
//             [threads]
//
// `pred` is one of base, dsi, last-pc, ltp, ltp-global; `mode` is
// active (the default) or passive. An unknown predictor, mode, topology
// or routing name exits 2, as does an `iterScale` or `nodes` that is
// not a whole number or an `iterScale` that is not positive. `threads`
// (or LTP_SIM_THREADS) selects the parallel engine's shard count; the
// dump is bit-identical for every value.
//
// Observability (all observer-only — the dump does not change):
//   LTP_TRACE=t.json            capture a Chrome/Perfetto trace
//   LTP_TRACE_CATS=link,engine  restrict traced categories
//   LTP_METRICS=m.jsonl         stream periodic StatGroup deltas
//   LTP_METRICS_INTERVAL=5000   sampling period in ticks
//   LTP_ENGINE_PROFILE=1        print the engine self-profile to stderr
//
// Harness guards (src/sim/guard/; watchdog/checkers/recorder are
// observer-only too):
//   LTP_CHECK=all               arm protocol invariant checkers
//   LTP_FAULT=<spec>            deterministic fault injection
//   LTP_WATCHDOG_MS / LTP_BARRIER_STALL_MS / LTP_MAX_WALL_MS /
//   LTP_MAX_EVENTS / LTP_MAX_RSS_MB   progress/resource budgets
//   LTP_FLIGHT_RECORDER=f.json  crash/abort flight-record dump
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "dsm/experiment.hh"

namespace
{

/** @p text as a T, when all of it is one (no sign on an unsigned T). */
template <typename T>
std::optional<T>
parseWhole(const char *text)
{
    T value{};
    const char *end = text + std::strlen(text);
    auto [stop, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || stop != end)
        return std::nullopt;
    return value;
}

int
runDebug(int argc, char **argv)
{
    ltp::ExperimentSpec spec;
    spec.kernel = argc > 1 ? argv[1] : "tomcatv";
    spec.predictor = ltp::PredictorKind::Base;
    spec.mode = ltp::PredictorMode::Off;
    if (argc > 2) {
        std::optional<double> scale = parseWhole<double>(argv[2]);
        if (!scale) {
            std::cerr << "invalid iterScale '" << argv[2] << "'\n";
            return 2;
        }
        spec.iterScale = *scale;
    }

    ltp::SystemParams sp;
    if (argc > 3) {
        std::optional<ltp::NodeId> nodes = parseWhole<ltp::NodeId>(argv[3]);
        if (!nodes) {
            std::cerr << "invalid nodes '" << argv[3] << "'\n";
            return 2;
        }
        sp.numNodes = *nodes;
    }
    if (argc > 4) {
        std::optional<ltp::PredictorKind> pred;
        for (auto k : {ltp::PredictorKind::Base, ltp::PredictorKind::Dsi,
                       ltp::PredictorKind::LastPc,
                       ltp::PredictorKind::LtpPerBlock,
                       ltp::PredictorKind::LtpGlobal}) {
            if (std::string(argv[4]) == ltp::predictorKindName(k))
                pred = k;
        }
        if (!pred) {
            std::cerr << "unknown predictor '" << argv[4] << "'\n";
            return 2;
        }
        sp.predictor = *pred;
        std::string mode = argc > 5 ? argv[5] : "active";
        if (mode != "active" && mode != "passive") {
            std::cerr << "unknown mode '" << mode << "'\n";
            return 2;
        }
        sp.mode = mode == "passive" ? ltp::PredictorMode::Passive
                                    : ltp::PredictorMode::Active;
    }
    if (argc > 6) {
        auto topo = ltp::parseTopologyKind(argv[6]);
        if (!topo) {
            std::cerr << "unknown topology '" << argv[6] << "'\n";
            return 2;
        }
        sp.net.topology = *topo;
    }
    if (argc > 7) {
        auto routing = ltp::parseRoutingPolicy(argv[7]);
        if (!routing) {
            std::cerr << "unknown routing '" << argv[7] << "'\n";
            return 2;
        }
        sp.net.routing = *routing;
    }
    try {
        if (argc > 8)
            sp.simThreads = ltp::parseSimThreads(argv[8]);
        else if (const char *env = std::getenv("LTP_SIM_THREADS"))
            sp.simThreads = ltp::parseSimThreads(env);
        sp.obs = ltp::obs::obsParamsFromEnv();
        sp.guard = ltp::guard::guardParamsFromEnv();
    } catch (const std::invalid_argument &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    ltp::KernelConfig cfg = ltp::defaultConfig(spec.kernel);
    cfg.nodes = sp.numNodes;
    try {
        cfg.iters = ltp::scaleIterations(cfg.iters, spec.iterScale);
    } catch (const std::invalid_argument &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    ltp::DsmSystem sys(sp);
    auto kernel = ltp::makeKernel(spec.kernel);
    ltp::RunResult r = sys.run(*kernel, cfg);

    std::cout << "completed=" << r.completed << " cycles=" << r.cycles
              << " memOps=" << r.memOps
              << " invalidations=" << r.invalidations << "\n";
    if (r.outcome == ltp::RunOutcome::Aborted)
        std::cout << "aborted=\"" << r.abortReason << "\"\n";
    if (!r.completed) {
        for (ltp::NodeId n = 0; n < sp.numNodes; ++n) {
            auto &node = sys.node(n);
            std::cout << "node " << n << ": done=" << node.task.done()
                      << " outstanding=" << node.cacheCtrl->hasOutstanding();
            if (node.cacheCtrl->hasOutstanding())
                std::cout << " blk=0x" << std::hex
                          << node.cacheCtrl->outstandingBlock() << std::dec;
            std::cout << "\n";
        }
    }
    sys.stats().dump(std::cout);
    if (const char *prof = std::getenv("LTP_ENGINE_PROFILE");
        prof && std::string(prof) == "1") {
        // Host-side numbers — stderr, so stdout stays byte-comparable
        // across shard counts.
        const auto &ep = r.engineProfile;
        std::cerr << "engineProfile: rounds=" << ep.rounds
                  << " windowTicks=" << ep.windowTicks
                  << " barrierParks=" << ep.barrierParks
                  << " barrierWaitNs=" << ep.barrierWaitNs
                  << " spilledPosts=" << ep.spilledPosts
                  << " overflowMigrations=" << ep.overflowMigrations
                  << "\n";
    }
    return r.completed ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Fail loudly but structured: a throwing run (a violated LTP_CHECK
    // invariant, a bad spec, a harness bug) prints one parseable line
    // and exits 1 instead of aborting with an unhandled exception.
    try {
        return runDebug(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "ltp_debug: fatal: " << e.what() << "\n";
        return 1;
    }
}
