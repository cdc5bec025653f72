/**
 * @file
 * DsmSystem: assembles the full simulated machine — event queue,
 * network, one cache controller + directory controller + predictor per
 * node — and runs a workload kernel on it.
 *
 * This is the library's main entry point:
 *
 *   auto kernel = makeKernel("em3d");
 *   DsmSystem sys(SystemParams::withPredictor(
 *       PredictorKind::LtpPerBlock, PredictorMode::Passive));
 *   RunResult r = sys.run(*kernel, defaultConfig("em3d"));
 *   // r.accuracy(), r.cycles, ...
 */

#ifndef LTP_DSM_SYSTEM_HH
#define LTP_DSM_SYSTEM_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsm/params.hh"
#include "kernel/kernels.hh"
#include "kernel/sync.hh"
#include "kernel/thread_ctx.hh"
#include "mem/addr.hh"
#include "mem/memory_values.hh"
#include "net/topo/interconnect.hh"
#include "obs/engine_profile.hh"
#include "predictor/invalidation_predictor.hh"
#include "proto/cache_controller.hh"
#include "proto/dir_controller.hh"
#include "sim/par/lookahead.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/stats.hh"

namespace ltp
{

namespace obs
{
class MetricsSampler;
} // namespace obs

/** How a run ended (RunResult::outcome). */
enum class RunOutcome : std::uint8_t
{
    Completed, //!< every thread finished
    Aborted,   //!< a guard fired or the tick budget ran out (abortReason)
};

/** Aggregate results of one kernel execution. */
struct RunResult
{
    bool completed = false; //!< all threads finished before maxTicks
    /** Completed, or Aborted with the structured abortReason. */
    RunOutcome outcome = RunOutcome::Completed;
    /**
     * Why the run aborted: the watchdog detector's structured reason
     * ("no-progress: ...", "barrier stall: ...", "...budget exceeded"),
     * or the harness's own ("maxTicks exceeded...", "idle deadlock...").
     * Empty when outcome == Completed.
     */
    std::string abortReason;
    Tick cycles = 0;
    std::uint64_t memOps = 0;
    /** Discrete events executed by the simulation core (perf tracking). */
    std::uint64_t eventsExecuted = 0;
    /** Partitions the engine actually ran. */
    unsigned simShards = 1;

    // Prediction-accuracy accounting (Figures 6-8). The denominator is
    // the number of (real or correctly-replaced) invalidations.
    std::uint64_t invalidations = 0;
    std::uint64_t predicted = 0;
    std::uint64_t notPredicted = 0;
    std::uint64_t mispredicted = 0;

    // Directory observables (Table 4).
    double dirQueueingMean = 0.0;
    double dirServiceMean = 0.0;
    std::uint64_t selfInvTimelyCorrect = 0;
    std::uint64_t selfInvLateCorrect = 0;
    std::uint64_t selfInvPremature = 0;
    std::uint64_t selfInvsIssued = 0;

    // Predictor storage (Table 3), aggregated over all nodes.
    StorageStats storage;

    // Interconnect observables (topology studies).
    std::uint64_t netMsgs = 0;
    double netLatencyMean = 0.0;
    double netLatencyP50 = 0.0;
    double netLatencyP99 = 0.0;
    /** Latency samples beyond the histogram range (percentiles clamp). */
    std::uint64_t netLatencyOverflow = 0;

    /**
     * Host-side engine self-profile (windows, barrier waits, spills).
     * Machine-dependent wall-clock territory — reported beside the
     * deterministic results, never inside the stats dump.
     */
    obs::EngineProfile engineProfile;
    double netHopMean = 0.0;       //!< 0 for the point-to-point model
    std::uint64_t netPeakLinkBusy = 0; //!< busiest link's busy cycles

    /** Peak per-link utilization in [0, 1] (0 without physical links). */
    double
    peakLinkUtilization() const
    {
        return cycles ? double(netPeakLinkBusy) / double(cycles) : 0.0;
    }

    double
    fraction(std::uint64_t x) const
    {
        return invalidations ? double(x) / double(invalidations) : 0.0;
    }

    double accuracy() const { return fraction(predicted); }
    double mispredictionRate() const { return fraction(mispredicted); }

    /** Fraction of correct self-invalidations that arrived timely. */
    double
    timeliness() const
    {
        std::uint64_t correct = selfInvTimelyCorrect + selfInvLateCorrect;
        return correct ? double(selfInvTimelyCorrect) / double(correct)
                       : 0.0;
    }
};

/** One DSM node's components. */
struct DsmNode
{
    std::unique_ptr<InvalidationPredictor> predictor;
    std::unique_ptr<CacheController> cacheCtrl;
    std::unique_ptr<DirController> dirCtrl;
    std::unique_ptr<ThreadCtx> thread;
    Task<void> task;
    std::function<void()> onDone;
};

/** The whole simulated machine. */
class DsmSystem
{
  public:
    explicit DsmSystem(SystemParams params);
    ~DsmSystem();

    DsmSystem(const DsmSystem &) = delete;
    DsmSystem &operator=(const DsmSystem &) = delete;

    /**
     * Run @p kernel (with @p cfg inputs) to completion.
     * The kernel's node count must equal the system's.
     */
    RunResult run(KernelBase &kernel, const KernelConfig &cfg);

    const SystemParams &params() const { return params_; }
    /**
     * Whole-run statistics: a merged snapshot rebuilt on every call.
     * References stay valid across calls, but treat it as read-only —
     * writes are discarded by the next rebuild. To register custom
     * stats, use scheduler().shardStats() before the run instead.
     */
    StatGroup &stats() { return sim_->stats(); }
    /** The engine's plan (sharding, window width) for this system. */
    const ShardPlan &shardPlan() const { return plan_; }
    ParallelScheduler &scheduler() { return *sim_; }
    Interconnect &network() { return *net_; }
    DsmNode &node(NodeId n) { return *nodes_[n]; }
    MemoryValues &memory() { return mem_; }
    AddressSpace &addressSpace() { return *as_; }

  private:
    std::unique_ptr<InvalidationPredictor> makePredictor() const;
    RunResult collect(bool completed) const;
    /** LTP_CHECK quiesce invariants (completed runs only). */
    void guardQuiesceChecks() const;

    SystemParams params_;
    ShardPlan plan_;
    std::unique_ptr<ParallelScheduler> sim_;
    HomeMap homes_;
    MemoryValues mem_;
    std::unique_ptr<AddressSpace> as_;
    std::unique_ptr<Interconnect> net_;
    std::unique_ptr<SyncDomain> sync_;
    std::vector<std::unique_ptr<DsmNode>> nodes_;
    std::atomic<unsigned> finished_{0};
    std::unique_ptr<obs::MetricsSampler> sampler_;
};

} // namespace ltp

#endif // LTP_DSM_SYSTEM_HH
