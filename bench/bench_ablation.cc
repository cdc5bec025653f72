/**
 * @file
 * Ablations of three design choices beyond the paper's own figures:
 *
 *  1. Confidence filtering: selective self-invalidation (2-bit counters,
 *     predict only when saturated) vs brute-force prediction (predict on
 *     any table hit). Section 4 argues the counters are what keeps
 *     mispredictions from erasing the gains.
 *  2. Directory engine pipelining: the two-stage pipelined protocol
 *     engine vs a simple serial engine, under DSI's bursty flushes
 *     (the paper models the pipelined engine specifically to dampen
 *     synchronization-burst queueing).
 *  3. Trace encoding: the paper's truncated addition (commutative,
 *     order-insensitive) vs an order-sensitive rotate-xor, at 6-bit
 *     signatures, by passive per-block LTP accuracy.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace ltp;

namespace
{

RunResult
runWith(const std::string &kernel, PredictorKind kind, PredictorMode mode,
        unsigned conf_threshold, bool pipelined)
{
    SystemParams sp = SystemParams::withPredictor(kind, mode, 30);
    sp.ltp.confThreshold = conf_threshold;
    sp.dir.pipelined = pipelined;
    KernelConfig cfg = defaultConfig(kernel);
    cfg.nodes = sp.numNodes;
    DsmSystem sys(sp);
    auto k = makeKernel(kernel);
    return sys.run(*k, cfg);
}

} // namespace

static int
run()
{
    bench::printSystemBanner();

    std::printf("\n== Ablation 1: confidence filtering (passive LTP) ==\n");
    std::printf("%-14s %16s %16s %16s %16s\n", "benchmark",
                "filtered-pred%", "filtered-mis%", "brute-pred%",
                "brute-mis%");
    const std::vector<std::string> conf_apps = {"moldyn", "tomcatv",
                                                "barnes", "em3d"};
    for (const auto &name : conf_apps) {
        RunResult filt = runWith(name, PredictorKind::LtpPerBlock,
                                 PredictorMode::Passive, 3, true);
        // Threshold 0: any learned signature predicts immediately.
        RunResult brute = runWith(name, PredictorKind::LtpPerBlock,
                                  PredictorMode::Passive, 0, true);
        std::printf("%-14s %16.1f %16.1f %16.1f %16.1f\n", name.c_str(),
                    bench::pct(filt.accuracy()),
                    bench::pct(filt.mispredictionRate()),
                    bench::pct(brute.accuracy()),
                    bench::pct(brute.mispredictionRate()));
    }

    std::printf("\n== Ablation 2: two-stage pipelined directory engine "
                "vs serial (active DSI) ==\n");
    std::printf("%-14s %18s %18s\n", "benchmark", "pipelined-queue",
                "serial-queue");
    const std::vector<std::string> burst_apps = {"em3d", "tomcatv",
                                                 "appbt"};
    for (const auto &name : burst_apps) {
        RunResult pipe = runWith(name, PredictorKind::Dsi,
                                 PredictorMode::Active, 3, true);
        RunResult serial = runWith(name, PredictorKind::Dsi,
                                   PredictorMode::Active, 3, false);
        std::printf("%-14s %18.1f %18.1f\n", name.c_str(),
                    pipe.dirQueueingMean, serial.dirQueueingMean);
    }
    std::printf("\n== Ablation 3: trace-encoding function, narrow "
                "signatures (passive per-block LTP) ==\n");
    std::printf("%-14s %18s %18s\n", "benchmark", "trunc-add@6bit",
                "rot-xor@6bit");
    for (const auto &name : {"appbt", "dsmc", "ocean"}) {
        auto run_enc = [&](SigEncoding enc) {
            SystemParams sp = SystemParams::withPredictor(
                PredictorKind::LtpPerBlock, PredictorMode::Passive, 6);
            sp.ltp.encoding = enc;
            KernelConfig cfg = defaultConfig(name);
            cfg.nodes = sp.numNodes;
            DsmSystem sys(sp);
            auto k = makeKernel(name);
            return sys.run(*k, cfg);
        };
        RunResult add = run_enc(SigEncoding::TruncatedAdd);
        RunResult rx = run_enc(SigEncoding::RotateXor);
        std::printf("%-14s %18.1f %18.1f\n", name,
                    bench::pct(add.accuracy()), bench::pct(rx.accuracy()));
    }

    std::printf("\n# Expected: brute-force prediction inflates "
                "mispredictions on variable-trace apps; the serial engine "
                "roughly doubles DSI burst queueing\n");
    return 0;
}

int
main()
{
    return ltp::bench::guardedMain("bench_ablation", run);
}
