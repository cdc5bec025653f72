/**
 * @file
 * Predictor design-space explorer: sweep predictor organizations and
 * signature widths over one benchmark from the command line.
 *
 *   $ ./example_predictor_explorer [kernel] [topology] [routing] [threads]
 *
 * Defaults: tomcatv on the paper's point-to-point network. Topology is
 * one of p2p | mesh | torus | ring and routing one of
 * dor | adaptive | oblivious (see src/net/README.md), so the accuracy
 * study can be reproduced under hop- and congestion-dependent network
 * latency and any routing policy. `threads` selects the parallel
 * engine's shard count (results are bit-identical for every value;
 * these Passive-mode sweeps shard cleanly).
 *
 * Prints an accuracy/storage matrix — the kind of study Sections 5.2
 * and 5.3 of the paper run — for the chosen workload.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsm/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace ltp;

    std::string kernel = argc > 1 ? argv[1] : "tomcatv";
    bool known = false;
    for (const auto &name : allKernelNames())
        known |= name == kernel;
    if (!known) {
        std::fprintf(stderr, "unknown kernel '%s'; choose one of:\n",
                     kernel.c_str());
        for (const auto &name : allKernelNames())
            std::fprintf(stderr, "  %s\n", name.c_str());
        return 1;
    }

    TopologyKind topology = TopologyKind::PointToPoint;
    if (argc > 2) {
        auto parsed = parseTopologyKind(argv[2]);
        if (!parsed) {
            std::fprintf(stderr,
                         "unknown topology '%s'; choose one of: p2p mesh "
                         "torus ring\n",
                         argv[2]);
            return 1;
        }
        topology = *parsed;
    }

    RoutingPolicy routing = RoutingPolicy::DimensionOrder;
    if (argc > 3) {
        auto parsed = parseRoutingPolicy(argv[3]);
        if (!parsed) {
            std::fprintf(stderr,
                         "unknown routing policy '%s'; choose one of: dor "
                         "adaptive oblivious\n",
                         argv[3]);
            return 1;
        }
        routing = *parsed;
    }

    unsigned sim_threads = 1;
    if (argc > 4) {
        try {
            sim_threads = parseSimThreads(argv[4]);
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }

    std::printf("predictor design space on '%s' (%s), topology=%s, "
                "routing=%s, threads=%u\n",
                kernel.c_str(),
                describeConfig(kernel, defaultConfig(kernel)).c_str(),
                topologyKindName(topology), routingPolicyName(routing),
                sim_threads);
    std::printf("%-12s %6s %10s %10s %10s %10s\n", "organization",
                "bits", "pred%", "mispred%", "ent/blk", "bytes/blk");

    struct Row
    {
        const char *label;
        PredictorKind kind;
        unsigned bits;
    };
    const std::vector<Row> rows = {
        {"last-pc", PredictorKind::LastPc, 30},
        {"per-block", PredictorKind::LtpPerBlock, 30},
        {"per-block", PredictorKind::LtpPerBlock, 13},
        {"per-block", PredictorKind::LtpPerBlock, 11},
        {"per-block", PredictorKind::LtpPerBlock, 6},
        {"global", PredictorKind::LtpGlobal, 30},
        {"global", PredictorKind::LtpGlobal, 13},
        {"dsi", PredictorKind::Dsi, 0},
    };

    for (const Row &row : rows) {
        ExperimentSpec spec;
        spec.kernel = kernel;
        spec.predictor = row.kind;
        spec.mode = PredictorMode::Passive;
        spec.sigBits = row.bits ? row.bits : 30;
        spec.topology = topology;
        spec.routing = routing;
        spec.simThreads = sim_threads;
        RunResult r = runExperiment(spec);
        std::printf("%-12s %6u %10.1f %10.1f", row.label, row.bits,
                    100 * r.accuracy(), 100 * r.mispredictionRate());
        if (r.storage.activeBlocks) {
            std::printf(" %10.1f %10.1f\n", r.storage.entriesPerBlock(),
                        r.storage.bytesPerBlock());
        } else {
            std::printf(" %10s %10s\n", "-", "-");
        }
    }
    return 0;
}
