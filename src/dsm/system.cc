#include "dsm/system.hh"

#include <cassert>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "net/topo/routed_network.hh"
#include "obs/metrics.hh"
#include "predictor/dsi.hh"
#include "predictor/ltp_per_block.hh"
#include "sim/guard/flight_recorder.hh"
#include "sim/guard/watchdog.hh"
#include "sim/par/parallel_scheduler.hh"

namespace ltp
{

namespace
{

/** Decide the engine (shards + window) for @p params. */
ShardPlan
planFor(const SystemParams &params)
{
    if (params.numNodes == 0 || params.numNodes > maxNodes) {
        throw std::invalid_argument(
            "SystemParams::numNodes must be in [1, " +
            std::to_string(maxNodes) + "], got " +
            std::to_string(params.numNodes));
    }
    if (params.simThreads == 0 || params.simThreads > maxSimThreads) {
        throw std::invalid_argument(
            "SystemParams::simThreads must be in [1, " +
            std::to_string(maxSimThreads) + "], got " +
            std::to_string(params.simThreads));
    }
    // Reject invalid network knobs with the descriptive error before
    // deriving a lookahead from them (makeInterconnect would only get
    // to say so later).
    validateNetworkParams(params.net, params.numNodes);
    LookaheadInputs in;
    in.requestedThreads = params.simThreads;
    in.numNodes = params.numNodes;
    in.netLookahead = networkLookahead(params.net).ticks;
    in.barrierLatency = params.barrierLatency;
    return resolveShardPlan(in);
}

/** The run's observer settings, checked against the engine @p plan. */
ObserverConfig
observersFor(const SystemParams &params, const ShardPlan &plan)
{
    ObserverConfig oc;
    oc.trace.path = params.obs.traceFile;
    oc.trace.categories = params.obs.tracerCategories;
    oc.checkMask = params.guard.checkMask;
    // The pairwise-FIFO check reads netSeq, which only the routed
    // network stamps (the p2p model delivers in order by design).
    oc.pairFifo = params.net.topology != TopologyKind::PointToPoint;
    oc.faults = guard::parseFaultSpec(params.guard.faultSpec);
    if (oc.faults.on(guard::FaultKind::BarrierWedge) && !plan.parallel()) {
        throw std::invalid_argument(
            "LTP_FAULT=barrier-wedge needs the staged parallel engine "
            "(simThreads >= 2); this run has no window barrier");
    }
    return oc;
}

} // namespace

SystemParams
SystemParams::base()
{
    return SystemParams{};
}

SystemParams
SystemParams::withPredictor(PredictorKind kind, PredictorMode mode,
                            unsigned sig_bits)
{
    SystemParams p;
    p.predictor = kind;
    p.mode = kind == PredictorKind::Base ? PredictorMode::Off : mode;
    p.ltp.sigBits = sig_bits;
    return p;
}

SystemParams
SystemParams::withTopology(TopologyKind kind, NodeId nodes)
{
    SystemParams p;
    p.numNodes = nodes;
    p.net.topology = kind;
    return p;
}

DsmSystem::DsmSystem(SystemParams params)
    : params_(params),
      plan_(planFor(params)),
      sim_(std::make_unique<ParallelScheduler>(plan_.shards,
                                               params.numNodes,
                                               plan_.window,
                                               observersFor(params, plan_))),
      homes_(params.pageSize, params.numNodes),
      as_(std::make_unique<AddressSpace>(homes_, params.cache.blockSize)),
      net_(makeInterconnect(*sim_, params.numNodes, params.net)),
      sync_(std::make_unique<SyncDomain>(*sim_, params.numNodes,
                                         params.barrierLatency))
{
    mem_.setConcurrent(plan_.parallel());
    for (NodeId n = 0; n < params_.numNodes; ++n) {
        // Every component of node n runs on n's shard: its queue and
        // its shard's stat group (merged after the run).
        StatGroup &stats = sim_->shardStats(sim_->shardOf(n));
        auto node = std::make_unique<DsmNode>();
        node->predictor = makePredictor();
        node->cacheCtrl = std::make_unique<CacheController>(
            n, *sim_, *net_, homes_, params_.cache, stats);
        node->cacheCtrl->setPredictor(node->predictor.get(), params_.mode);
        node->dirCtrl = std::make_unique<DirController>(
            n, *sim_, *net_, params_.dir, stats);
        nodes_.push_back(std::move(node));
    }

    // Route inbound messages: requests, acks, writebacks and
    // self-invalidations go to the home directory; invalidations and
    // data replies go to the cache controller.
    for (NodeId n = 0; n < params_.numNodes; ++n) {
        net_->setSink(n, [this, n](const Message &msg) {
            if (routesToDirectory(msg.type))
                nodes_[n]->dirCtrl->receive(msg);
            else
                nodes_[n]->cacheCtrl->receive(msg);
        });
        // Verification outcomes train the self-invalidating node's
        // predictor; the directory delivers each one a network hop
        // later, on that node's shard.
        nodes_[n]->dirCtrl->setVerifyHook(
            [this](NodeId who, Addr blk, bool premature, bool timely) {
                nodes_[who]->cacheCtrl->onDirVerify(blk, premature,
                                                    timely);
            });
    }
}

DsmSystem::~DsmSystem() = default;

std::unique_ptr<InvalidationPredictor>
DsmSystem::makePredictor() const
{
    switch (params_.predictor) {
      case PredictorKind::Base:
        return std::make_unique<NullPredictor>();
      case PredictorKind::Dsi:
        return std::make_unique<DsiPredictor>();
      case PredictorKind::LastPc:
      case PredictorKind::LtpPerBlock:
      case PredictorKind::LtpGlobal:
        return std::make_unique<LastTouchPredictor>(params_.predictor,
                                                    params_.ltp);
    }
    return std::make_unique<NullPredictor>();
}

RunResult
DsmSystem::run(KernelBase &kernel, const KernelConfig &cfg)
{
    if (!nodes_.front()->task.valid() && finished_ == 0) {
        // first (and only) run on this system instance
    } else {
        throw std::logic_error("DsmSystem::run may only be called once");
    }

    KernelConfig actual = cfg;
    actual.nodes = params_.numNodes;
    kernel.setup(*as_, mem_, actual);

    for (NodeId n = 0; n < params_.numNodes; ++n) {
        DsmNode &node = *nodes_[n];
        node.thread = std::make_unique<ThreadCtx>(
            n, sim_->queueFor(n), *node.cacheCtrl, mem_, *sync_,
            actual.seed);
        node.onDone = [this] {
            finished_.fetch_add(1, std::memory_order_relaxed);
        };
        node.task = kernel.run(*node.thread);
        node.task.start(&node.onDone);
    }

    // Observability bring-up, all observer-only: the engine's tracer
    // (built with the system) buffers compact records per shard until
    // the flush below, and the sampler reads statistics at quiescent
    // points. Neither schedules events or touches simulated state, so
    // results are byte-identical with or without them.
    if (params_.obs.metricsEnabled()) {
        sampler_ = std::make_unique<obs::MetricsSampler>(
            params_.obs.metricsFile, params_.obs.metricsIntervalTicks);
        sim_->setMetricsSampler(sampler_.get());
    }

    // Guard bring-up (src/sim/guard/): the watchdog and the flight
    // recorder watch the engine through one probe set; the checkers and
    // the fault plan were built with the engine.
    const guard::GuardParams &gp = params_.guard;
    guard::EngineProbes probes;
    probes.tick = [this] { return sim_->tickApprox(); };
    probes.events = [this] { return sim_->executedApprox(); };
    if (plan_.parallel()) {
        probes.barrierGeneration = [this] {
            return sim_->barrier().generationValue();
        };
        probes.barrierArrived = [this] {
            return sim_->barrier().arrivedCount();
        };
    }
    std::optional<guard::FlightRecorder> recorder;
    if (gp.recorderEnabled()) {
        auto profile = [this] { return sim_->profile(); };
        recorder.emplace(gp.flightRecorderFile,
                         guard::RecorderContext{probes, profile, plan_.shards,
                                                &sim_->tracer()});
    }

    {
        // The watchdog scope brackets exactly the engine run: its
        // destructor joins the monitor thread before any result is
        // collected, so nothing below races with a late detector.
        auto abortRun = [this](const std::string &reason) {
            sim_->requestAbort(reason);
        };
        guard::Watchdog watchdog(gp, {probes, abortRun});

        try {
            sim_->runUntil(params_.maxTicks);
        } catch (const std::exception &e) {
            // A checker (or anything else) threw mid-run: leave a
            // flight record and the trace behind before the exception
            // unwinds the harness.
            if (recorder)
                recorder->dumpNow(std::string("exception: ") + e.what());
            sim_->tracer().flush();
            throw;
        }
    }

    unsigned finished = finished_.load(std::memory_order_relaxed);
    bool completed = finished == params_.numNodes;
    std::string abortReason;
    if (!completed) {
        abortReason = sim_->abortReason();
        if (abortReason.empty()) {
            if (sim_->now() >= params_.maxTicks) {
                abortReason = "maxTicks exceeded: tick " +
                              std::to_string(sim_->now()) +
                              " reached the " +
                              std::to_string(params_.maxTicks) +
                              "-cycle budget";
            } else {
                abortReason =
                    "idle deadlock: all event queues drained at tick " +
                    std::to_string(sim_->now()) + " with " +
                    std::to_string(params_.numNodes - finished) + " of " +
                    std::to_string(params_.numNodes) +
                    " threads unfinished";
            }
        }
        // The clean-path flight record: the engine joined its workers
        // when runUntil() returned, so this dump is complete and
        // race-free. It must land before Tracer::flush() below drains
        // the trace buffers the dump's traceTail reads.
        if (recorder)
            recorder->dumpNow("aborted: " + abortReason);
    }

    if (sampler_) {
        sampler_->finish(sim_->now(), sim_->stats(),
                         sim_->eventsExecuted());
        sim_->setMetricsSampler(nullptr);
    }
    sim_->tracer().flush();

    RunResult r = collect(completed);
    if (completed) {
        // Quiesce invariants only make sense on a drained machine; an
        // aborted run legitimately has messages in flight and busy
        // directory entries.
        if (gp.checksEnabled())
            guardQuiesceChecks();
    } else {
        r.outcome = RunOutcome::Aborted;
        r.abortReason = std::move(abortReason);
    }
    return r;
}

void
DsmSystem::guardQuiesceChecks() const
{
    guard::Checks &checks = sim_->checks();
    if (checks.on(obs::Cat::Message))
        checks.checkMessageConservation();

    if (checks.on(obs::Cat::Link)) {
        if (auto *rn = dynamic_cast<RoutedNetwork *>(net_.get()))
            rn->guardCheckQuiesce();
    }

    // Directory -> cache: every sharer bit maps to a Shared copy, every
    // owner to an Exclusive copy, nothing still busy. Valid at quiesce
    // because evictions and self-invalidations all notify home
    // (EvictS/EvictX, SelfInvS/SelfInvX).
    if (checks.on(obs::Cat::Directory)) {
        for (NodeId h = 0; h < params_.numNodes; ++h) {
            nodes_[h]->dirCtrl->directory().forEach([&](Addr blk,
                                                        const DirEntry &e) {
                auto fail = [&](const std::string &what) {
                    char addr[32];
                    std::snprintf(addr, sizeof(addr), "0x%llx",
                                  (unsigned long long)blk);
                    throw guard::CheckFailure(
                        "directory<->cache: " + what + " (home " +
                        std::to_string(h) + ", block " + addr +
                        ", dir state " + dirStateName(e.state) + ")");
                };
                if (e.busy)
                    fail("entry still busy at quiesce");
                switch (e.state) {
                  case DirState::Idle:
                    if (e.sharers != 0)
                        fail("Idle entry with sharer bits set");
                    break;
                  case DirState::Shared:
                    for (NodeId n = 0; n < params_.numNodes; ++n) {
                        if (!e.isSharer(n))
                            continue;
                        if (nodes_[n]->cacheCtrl->cache().state(blk) !=
                            CacheState::Shared) {
                            fail("sharer bit for node " +
                                 std::to_string(n) +
                                 " but its cached copy is not Shared");
                        }
                    }
                    break;
                  case DirState::Exclusive:
                    if (e.owner == invalidNode ||
                        e.owner >= params_.numNodes)
                        fail("Exclusive entry with no valid owner");
                    else if (nodes_[e.owner]->cacheCtrl->cache().state(
                                 blk) != CacheState::Exclusive) {
                        fail("owner node " + std::to_string(e.owner) +
                             " does not hold the block Exclusive");
                    }
                    break;
                }
            });
        }
    }

    // Cache -> directory: every resident line is backed by the home's
    // bookkeeping (the converse direction catches a directory that
    // dropped a copy it should still track).
    if (checks.on(obs::Cat::Cache)) {
        for (NodeId n = 0; n < params_.numNodes; ++n) {
            nodes_[n]->cacheCtrl->cache().forEachResident(
                [&](Addr blk, const CacheLine &line) {
                    NodeId h = homes_.home(blk);
                    const DirEntry *e =
                        nodes_[h]->dirCtrl->directory().find(blk);
                    auto fail = [&](const std::string &what) {
                        char addr[32];
                        std::snprintf(addr, sizeof(addr), "0x%llx",
                                      (unsigned long long)blk);
                        throw guard::CheckFailure(
                            "cache<->directory: " + what + " (node " +
                            std::to_string(n) + ", block " + addr +
                            ", home " + std::to_string(h) + ")");
                    };
                    if (!e)
                        fail("resident line with no directory entry");
                    if (line.state == CacheState::Shared) {
                        if (e->state != DirState::Shared)
                            fail("Shared line but dir state is " +
                                 std::string(dirStateName(e->state)));
                        else if (!e->isSharer(n))
                            fail("Shared line but home's sharer bit "
                                 "is clear");
                    } else if (line.state == CacheState::Exclusive) {
                        if (e->state != DirState::Exclusive)
                            fail("Exclusive line but dir state is " +
                                 std::string(dirStateName(e->state)));
                        else if (e->owner != n)
                            fail("Exclusive line but home's owner is " +
                                 std::to_string(e->owner));
                    }
                });
        }
    }
}

RunResult
DsmSystem::collect(bool completed) const
{
    StatGroup &stats = sim_->stats();
    RunResult r;
    r.completed = completed;
    r.cycles = sim_->now();
    r.eventsExecuted = sim_->eventsExecuted();
    r.simShards = plan_.shards;
    r.invalidations = stats.counterValue("pred.invalidations");
    r.predicted = stats.counterValue("pred.predicted");
    r.notPredicted = stats.counterValue("pred.notPredicted");
    r.mispredicted = stats.counterValue("pred.mispredicted");
    r.dirQueueingMean = stats.averageMean("dir.queueing");
    r.dirServiceMean = stats.averageMean("dir.service");
    r.selfInvTimelyCorrect = stats.counterValue("dir.selfInvTimelyCorrect");
    r.selfInvLateCorrect = stats.counterValue("dir.selfInvLateCorrect");
    r.selfInvPremature = stats.counterValue("dir.selfInvPremature");
    r.selfInvsIssued = stats.counterValue("pred.selfInvsIssued");

    r.netMsgs = stats.counterValue("net.msgs");
    r.netLatencyMean = stats.averageMean("net.endToEndLatency");
    if (const Histogram *h = stats.findHistogram("net.endToEndLatency")) {
        r.netLatencyP50 = h->percentile(0.5);
        r.netLatencyP99 = h->percentile(0.99);
        r.netLatencyOverflow = h->overflow();
    }
    r.netHopMean = stats.averageMean("net.hopsPerMsg");
    r.netPeakLinkBusy = stats.maxCounterValueWithPrefix("net.linkBusy.");

    r.engineProfile = sim_->profile();

    for (const auto &node : nodes_) {
        if (node->thread)
            r.memOps += node->thread->memOps();
        if (auto s = node->predictor->storage()) {
            r.storage.sigBits = s->sigBits;
            r.storage.activeBlocks += s->activeBlocks;
            r.storage.totalEntries += s->totalEntries;
        }
    }
    return r;
}

} // namespace ltp
