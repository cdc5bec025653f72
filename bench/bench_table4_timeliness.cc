/**
 * @file
 * Regenerates Table 4 of the paper: average queueing delay and service
 * time per directory message (Base / DSI / LTP, all timing runs), and
 * the fraction of correct self-invalidations that reach the directory
 * before the next request (timeliness).
 *
 * Each message is sampled once, on the protocol-engine pass that serves
 * it. Queueing runs from its arrival at the directory to the start of
 * that pass, including any time it spent parked on a busy block;
 * service is that pass's latency. The passes that only park a message
 * again are not samples.
 *
 * Paper shapes to expect: DSI's synchronization-triggered bursts blow
 * directory queueing up by orders of magnitude, while LTP's queueing
 * stays near the base system's; LTP self-invalidations are >90% timely
 * on average (100% on the regular codes), DSI around 79%; raytrace is
 * the exception where LTP's lock mispredictions make it late.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace ltp;

namespace
{

RunResult
timingRun(const std::string &kernel, PredictorKind kind)
{
    ExperimentSpec spec;
    spec.kernel = kernel;
    spec.predictor = kind;
    spec.mode =
        kind == PredictorKind::Base ? PredictorMode::Off
                                    : PredictorMode::Active;
    return runExperiment(spec);
}

} // namespace

static int
run()
{
    bench::printSystemBanner();
    std::printf("\n== Table 4: directory queueing / service (cycles) and "
                "self-invalidation timeliness ==\n");
    std::printf("%-14s | %9s %9s | %9s %9s %6s | %9s %9s %6s\n",
                "", "base", "", "dsi", "", "", "ltp", "", "");
    std::printf("%-14s | %9s %9s | %9s %9s %6s | %9s %9s %6s\n",
                "benchmark", "queue", "service", "queue", "service",
                "tim%", "queue", "service", "tim%");

    for (const auto &name : allKernelNames()) {
        RunResult base = timingRun(name, PredictorKind::Base);
        RunResult dsi = timingRun(name, PredictorKind::Dsi);
        RunResult ltp = timingRun(name, PredictorKind::LtpPerBlock);
        std::printf(
            "%-14s | %9.1f %9.1f | %9.1f %9.1f %6.1f | %9.1f %9.1f "
            "%6.1f\n",
            name.c_str(), base.dirQueueingMean, base.dirServiceMean,
            dsi.dirQueueingMean, dsi.dirServiceMean,
            bench::pct(dsi.timeliness()), ltp.dirQueueingMean,
            ltp.dirServiceMean, bench::pct(ltp.timeliness()));
    }
    std::printf("\n# Paper: DSI queueing inflated ~3 orders of magnitude "
                "(avg timeliness 79%%); LTP queueing ~= base, timeliness "
                ">90%% (except raytrace)\n");
    return 0;
}

int
main()
{
    return ltp::bench::guardedMain("bench_table4_timeliness", run);
}
