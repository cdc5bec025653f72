/**
 * @file
 * Experiment presets: one-call helpers that build a fresh DsmSystem,
 * run one benchmark kernel under a given predictor configuration, and
 * return the aggregate results. The bench/ binaries that regenerate the
 * paper's tables and figures are thin loops over these helpers.
 */

#ifndef LTP_DSM_EXPERIMENT_HH
#define LTP_DSM_EXPERIMENT_HH

#include <optional>
#include <string>

#include "dsm/system.hh"

namespace ltp
{

/** Everything needed to reproduce one (kernel, predictor) cell. */
struct ExperimentSpec
{
    std::string kernel;
    PredictorKind predictor = PredictorKind::Base;
    /** Passive = accuracy methodology (Figs 6-8, Table 3);
     *  Active = performance methodology (Fig 9, Table 4). */
    PredictorMode mode = PredictorMode::Passive;
    unsigned sigBits = 30;
    /** Scale factor applied to the kernel's default iteration count. */
    double iterScale = 1.0;
    std::optional<KernelConfig> config; //!< overrides defaultConfig()
    std::optional<NodeId> nodes;        //!< overrides 32
    /** Interconnect topology (paper's point-to-point by default). */
    TopologyKind topology = TopologyKind::PointToPoint;
    /** Routing policy for routed topologies (ignored by p2p). Safe under
     *  the protocol for all policies: the routed network restores
     *  pairwise FIFO delivery with an ingress reorder buffer. */
    RoutingPolicy routing = RoutingPolicy::DimensionOrder;
    /** Full network-knob override (wins over `topology`/`routing`). */
    std::optional<NetworkParams> net;
    /**
     * Simulation worker threads (SystemParams::simThreads). Results are
     * bit-identical for every value. When unset, the LTP_SIM_THREADS
     * environment variable applies (CI runs a tier-1 shard with
     * LTP_SIM_THREADS=2 to exercise the parallel engine); setting any
     * value — including 1 — pins the run and ignores the environment.
     */
    std::optional<unsigned> simThreads;
    /**
     * Observability (tracing + metrics sampling, src/obs/). When unset,
     * the LTP_TRACE / LTP_TRACE_CATS / LTP_METRICS /
     * LTP_METRICS_INTERVAL environment variables apply
     * (obs::obsParamsFromEnv); setting a value — including a default
     * ObsParams, i.e. everything off — pins it and ignores the
     * environment. Observer-only either way: results are identical.
     */
    std::optional<obs::ObsParams> obs;
    /**
     * Harness guards (watchdog, invariant checkers, fault injection,
     * flight recorder — src/sim/guard/). When unset, the LTP_CHECK /
     * LTP_FAULT / LTP_WATCHDOG_MS / LTP_BARRIER_STALL_MS /
     * LTP_MAX_WALL_MS / LTP_MAX_EVENTS / LTP_MAX_RSS_MB /
     * LTP_FLIGHT_RECORDER environment variables apply
     * (guard::guardParamsFromEnv); setting a value — including a
     * default GuardParams, i.e. everything off — pins it and ignores
     * the environment.
     */
    std::optional<guard::GuardParams> guard;
};

/** Run one experiment on a fresh system. */
RunResult runExperiment(const ExperimentSpec &spec);

/**
 * @p iters scaled by @p scale (ExperimentSpec::iterScale), rounded to
 * the nearest count and at least 1. Throws std::invalid_argument unless
 * @p scale is positive and finite and the scaled count fits.
 */
unsigned scaleIterations(unsigned iters, double scale);

/**
 * Parse an LTP_SIM_THREADS-style thread count. Accepts exactly a
 * decimal integer in [1, 256]; anything else (non-numeric text, zero,
 * trailing junk, absurd values) throws std::invalid_argument with a
 * message naming the offending value — a misspelled environment
 * variable must fail loudly, not silently fall back to one thread.
 */
unsigned parseSimThreads(const char *text);

/**
 * Run the base system and one active predictor on the same kernel and
 * inputs; returns (base cycles / predictor cycles) — Figure 9's speedup.
 */
struct SpeedupResult
{
    RunResult base;
    RunResult pred;

    double
    speedup() const
    {
        return pred.cycles ? double(base.cycles) / double(pred.cycles)
                           : 0.0;
    }
};

SpeedupResult runSpeedup(const std::string &kernel, PredictorKind kind,
                         unsigned sig_bits = 30);

} // namespace ltp

#endif // LTP_DSM_EXPERIMENT_HH
