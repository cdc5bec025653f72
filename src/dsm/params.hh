/**
 * @file
 * Whole-system configuration (the counterpart of the paper's Table 1).
 */

#ifndef LTP_DSM_PARAMS_HH
#define LTP_DSM_PARAMS_HH

#include <cstdint>
#include <string>

#include "net/network.hh"
#include "obs/obs_params.hh"
#include "predictor/ltp_per_block.hh"
#include "proto/cache_controller.hh"
#include "proto/dir_controller.hh"
#include "sim/guard/guard_params.hh"
#include "sim/types.hh"

namespace ltp
{

/**
 * Upper bound on SystemParams::simThreads. Far above any sane host
 * (shards can never exceed the node count anyway); its purpose is to
 * reject typo'd values — LTP_SIM_THREADS=2000000 — loudly at
 * construction instead of silently spawning a thread army.
 */
constexpr unsigned maxSimThreads = 256;

/** Full system configuration. Defaults reproduce Table 1. */
struct SystemParams
{
    NodeId numNodes = 32;
    unsigned pageSize = 4096;

    CacheParams cache;   //!< 32 B blocks, unbounded (network cache)
    DirParams dir;       //!< 104-cycle memory, two-stage pipelined engine
    /** Interconnect model. Defaults to the paper's point-to-point network
     *  (80-cycle flight latency, NI contention); set net.topology to
     *  Mesh2D/Torus2D/Ring for hop- and congestion-dependent latency,
     *  net.routing/vcDepth for adaptive routing and finite-buffer
     *  backpressure (see src/net/README.md). */
    NetworkParams net;

    Tick barrierLatency = 200;

    /**
     * Simulation worker threads (not simulated processors!). Each
     * thread owns a contiguous shard of the nodes and runs it under the
     * engine's conservative windows (src/sim/par/). Results are
     * bit-identical for every value; 1 runs the same engine on the
     * calling thread.
     */
    unsigned simThreads = 1;

    PredictorKind predictor = PredictorKind::Base;
    PredictorMode mode = PredictorMode::Off;
    LtpParams ltp; //!< signature width etc. (LTP and Last-PC variants)

    /** Safety net: abort a run that exceeds this many cycles. */
    Tick maxTicks = 4'000'000'000ull;

    /**
     * Observability: event tracing and time-series metrics sampling
     * (src/obs/). Observer-only — results and statistics are
     * byte-identical whatever is enabled here; defaults are all-off.
     */
    obs::ObsParams obs;

    /**
     * Harness guards: progress watchdog, protocol invariant checkers,
     * deterministic fault injection, crash flight recorder
     * (src/sim/guard/). Watchdog/checkers/recorder are observer-only —
     * results and statistics are byte-identical whatever is armed here
     * (fault injection deliberately perturbs virtual time, but stays
     * deterministic and shard-count invariant); defaults are all-off.
     */
    guard::GuardParams guard;

    /** Convenience factories for the standard configurations. */
    static SystemParams base();
    static SystemParams withPredictor(PredictorKind kind,
                                      PredictorMode mode,
                                      unsigned sig_bits = 30);
    /** Base system on interconnect topology @p kind. */
    static SystemParams withTopology(TopologyKind kind, NodeId nodes = 32);
};

} // namespace ltp

#endif // LTP_DSM_PARAMS_HH
