/**
 * @file
 * ltpbench: one benchmark workload, measured in one single-threaded
 * process. run.py builds this program and calls it once per workload.
 *
 *   ltpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--smoke] [--spans FILE]
 *
 * A workload is one system configuration (see `workloads` below) run
 * over all nine kernels at their Table-2 inputs; one "pass" runs the
 * nine kernels once each, one experiment at a time (a closed loop).
 * The run, in order:
 *
 *  1. one untimed warm-up pass, whose stats dumps are the reference;
 *  2. timed passes, until --seconds have elapsed since the warm-up began
 *     (always at least one), each on the next core
 *     (see CoreRotation). wall_s is the "min-sum": each kernel's fastest
 *     DsmSystem::run (minus its setup) over the timed passes, summed
 *     over the nine kernels. Every pass does identical work and host
 *     noise only adds time. Each kernel run is followed by one setup
 *     repetition: construct every kernel's DsmSystem and run its
 *     KernelBase::setup, without simulating. setup_s is the median
 *     repetition of the core where that median is lowest;
 *  3. with --trace 1: one traced pass (below), then the fidelity passes
 *     that give the paper-error metrics.
 *
 * The traced pass measures layers only from outside, through their
 * public seams: a forwarding InvalidationPredictor per node, a
 * re-dispatching network sink per node, the directory's verify hook and
 * a KernelBase decorator. Each wrapper records a span (start, end,
 * parent); a layer's self time is its spans' duration minus their
 * children's, less the calibrated timer cost. The wrappers also record
 * every delivered message and every predictor call, which are then
 * replayed in isolation: the messages into a fresh interconnect, the
 * calls into a fresh predictor.
 *
 * Checks, each counted in "attempted"/"failed": every run completes;
 * every run's stats dump is byte-identical to the warm-up pass's (the
 * wrappers are observer-only); the replayed predictor answers every
 * onTouch as recorded; the network replay delivers every recorded
 * message, in order per (src, dst) pair.
 *
 * The result is one JSON object, the last line of stdout.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>

#include "dsm/system.hh"
#include "obs/categories.hh"
#include "predictor/ltp_per_block.hh"
#include "sim/par/parallel_scheduler.hh"

namespace
{

using namespace ltp;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nanos(Clock::duration d)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

// ---- workloads ------------------------------------------------------------

struct Workload
{
    const char *name;
    NodeId nodes;
    TopologyKind topology;
    PredictorKind predictor;
    PredictorMode mode;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md:
// the three p2p32 ones share cache, directory and NI code and differ in
// how the predictor layer is used; mesh32-base moves the cost into the
// routed network.
constexpr Workload workloads[] = {
    {"p2p32-base", 32, TopologyKind::PointToPoint, PredictorKind::Base,
     PredictorMode::Off},
    {"p2p32-ltp-active", 32, TopologyKind::PointToPoint,
     PredictorKind::LtpPerBlock, PredictorMode::Active},
    {"p2p32-ltp-passive", 32, TopologyKind::PointToPoint,
     PredictorKind::LtpPerBlock, PredictorMode::Passive},
    {"mesh32-base", 32, TopologyKind::Mesh2D, PredictorKind::Base,
     PredictorMode::Off},
};

/** The paper's averages the fidelity metrics measure against. */
constexpr double paperLtpSpeedupPct = 11.0;   // Figure 9
constexpr double paperLtpPredictedPct = 79.0; // Figure 6
constexpr double paperLtpMispredPct = 3.0;    // Figure 6

/** What every experiment of one process shares. */
struct RunSettings
{
    std::uint64_t seed = 1;
    double iterScale = 1.0;
    /** Arm every guard checker (observer-only: dumps do not change). */
    bool guardChecks = false;
};

SystemParams
paramsFor(const Workload &w, const RunSettings &s)
{
    SystemParams sp = SystemParams::withPredictor(w.predictor, w.mode);
    sp.numNodes = w.nodes;
    sp.net.topology = w.topology;
    sp.net.routing = RoutingPolicy::DimensionOrder;
    sp.simThreads = 1;
    // Pinned, so no LTP_* environment variable can leak into a run.
    sp.obs = obs::ObsParams{};
    sp.guard = guard::GuardParams{};
    if (s.guardChecks)
        sp.guard.checkMask = obs::allCatsMask;
    return sp;
}

KernelConfig
configFor(const std::string &kernel, const Workload &w, const RunSettings &s)
{
    KernelConfig cfg = defaultConfig(kernel);
    cfg.nodes = w.nodes;
    cfg.seed = s.seed;
    if (s.iterScale != 1.0) {
        cfg.iters = std::max(
            1u, unsigned(std::llround(cfg.iters * s.iterScale)));
    }
    return cfg;
}

// ---- spans ----------------------------------------------------------------

enum class Layer : std::uint8_t
{
    Kernel, //!< root: one DsmSystem::run
    Setup,
    DirRecv,
    CacheRecv,
    Pred,
    Verify,
    Count,
};

constexpr const char *layerNames[] = {"kernel",     "kernel.setup",
                                      "dir.recv",   "cache.recv",
                                      "pred",       "verify"};

/**
 * In-memory span log. Aggregates per-layer self time on the fly and
 * keeps up to `cap` span records per kernel for the Chrome trace.
 */
class SpanLog
{
  public:
    struct Record
    {
        std::int64_t startNs = 0;
        std::int64_t durNs = 0;
        std::int32_t parent = -1;
        Layer layer = Layer::Kernel;
        std::uint8_t kernel = 0;
    };

    struct Totals
    {
        std::uint64_t calls = 0;
        std::uint64_t children = 0; //!< direct child spans
        std::int64_t rawSelfNs = 0; //!< duration minus children's
    };

    explicit SpanLog(std::size_t cap_per_kernel)
        : cap_(cap_per_kernel), origin_(Clock::now())
    {
        stack_.reserve(16);
    }

    /** Open a root span; drops frames a throwing run left open. */
    void
    beginKernel(unsigned kernel)
    {
        kernel_ = std::uint8_t(kernel);
        kept_ = 0;
        stack_.clear();
        begin(Layer::Kernel);
    }

    void
    begin(Layer layer)
    {
        Frame f;
        f.layer = layer;
        if (kept_ < cap_) {
            f.id = std::int32_t(records_.size());
            Record r;
            r.parent = stack_.empty() ? -1 : stack_.back().id;
            r.layer = layer;
            r.kernel = kernel_;
            records_.push_back(r);
            ++kept_;
        }
        stack_.push_back(f);
        stack_.back().start = Clock::now();
    }

    void
    end()
    {
        Clock::time_point t = Clock::now();
        Frame f = stack_.back();
        stack_.pop_back();
        std::int64_t dur = nanos(t - f.start);
        Totals &tot = totals_[std::size_t(f.layer)];
        ++tot.calls;
        tot.children += f.children;
        tot.rawSelfNs += dur - f.childNs;
        if (!stack_.empty()) {
            stack_.back().childNs += dur;
            ++stack_.back().children;
        }
        if (f.id >= 0) {
            records_[std::size_t(f.id)].startNs = nanos(f.start - origin_);
            records_[std::size_t(f.id)].durNs = dur;
        }
    }

    const Totals &totals(Layer l) const { return totals_[std::size_t(l)]; }
    const std::vector<Record> &records() const { return records_; }

  private:
    struct Frame
    {
        Clock::time_point start;
        std::int64_t childNs = 0;
        std::uint64_t children = 0;
        std::int32_t id = -1;
        Layer layer = Layer::Kernel;
    };

    std::size_t cap_;
    std::size_t kept_ = 0;
    std::uint8_t kernel_ = 0;
    Clock::time_point origin_;
    std::vector<Frame> stack_;
    std::vector<Record> records_;
    Totals totals_[std::size_t(Layer::Count)] = {};
};

/** Per-span timer cost: all of it, and the part inside the span. */
struct SpanCost
{
    double totalNs = 0.0;
    double insideNs = 0.0;
};

/** Time empty spans; the minimum over rounds, since noise only adds. */
SpanCost
calibrateSpans()
{
    constexpr int rounds = 5;
    constexpr int n = 100000;
    SpanCost best{1e9, 1e9};
    for (int r = 0; r < rounds; ++r) {
        SpanLog log(0);
        log.beginKernel(0);
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < n; ++i) {
            log.begin(Layer::Pred);
            log.end();
        }
        double total = double(nanos(Clock::now() - t0)) / n;
        log.end();
        double inside = double(log.totals(Layer::Pred).rawSelfNs) / n;
        best.totalNs = std::min(best.totalNs, total);
        best.insideNs = std::min(best.insideNs, inside);
    }
    return best;
}

// ---- wrappers -------------------------------------------------------------

/** One recorded predictor call, replayed by replayPredictor(). */
struct PredCall
{
    enum Op : std::uint8_t
    {
        Touch,
        Invalidation,
        Verification,
        FillInfo,
        SyncBoundary,
    };

    Addr blk = 0;
    Pc pc = 0;
    NodeId node = 0;
    Op op = Touch;
    bool a = false;      //!< is_write / premature / dsiCandidate
    bool b = false;      //!< fill
    bool answer = false; //!< onTouch's return value
};

/** What the wrappers of one traced kernel run record. */
struct TraceHooks
{
    TraceHooks(SpanLog &log, unsigned kernel_index)
        : spans(log), kernel(kernel_index)
    {
    }

    void attach(DsmSystem &sys, const SystemParams &sp);

    SpanLog &spans;
    unsigned kernel; //!< index into allKernelNames()
    std::vector<Message> messages;
    std::vector<PredCall> predCalls;
    std::vector<std::unique_ptr<InvalidationPredictor>> wrappers;
};

/** Forwards every call to the node's real predictor inside a span. */
class TracedPredictor final : public InvalidationPredictor
{
  public:
    TracedPredictor(InvalidationPredictor &real, NodeId node,
                    TraceHooks &hooks)
        : real_(real), node_(node), hooks_(hooks)
    {
    }

    bool
    onTouch(Addr blk, Pc pc, bool is_write, bool fill) override
    {
        hooks_.spans.begin(Layer::Pred);
        bool last = real_.onTouch(blk, pc, is_write, fill);
        hooks_.spans.end();
        record(PredCall::Touch, blk, pc, is_write, fill, last);
        return last;
    }

    void
    onInvalidation(Addr blk) override
    {
        hooks_.spans.begin(Layer::Pred);
        real_.onInvalidation(blk);
        hooks_.spans.end();
        record(PredCall::Invalidation, blk, 0, false, false, false);
    }

    void
    onVerification(Addr blk, bool premature) override
    {
        hooks_.spans.begin(Layer::Pred);
        real_.onVerification(blk, premature);
        hooks_.spans.end();
        record(PredCall::Verification, blk, 0, premature, false, false);
    }

    void
    onFillInfo(Addr blk, const FillInfo &info) override
    {
        hooks_.spans.begin(Layer::Pred);
        real_.onFillInfo(blk, info);
        hooks_.spans.end();
        record(PredCall::FillInfo, blk, 0, info.dsiCandidate, false, false);
    }

    void
    onSyncBoundary() override
    {
        hooks_.spans.begin(Layer::Pred);
        real_.onSyncBoundary();
        hooks_.spans.end();
        record(PredCall::SyncBoundary, 0, 0, false, false, false);
    }

    std::string name() const override { return real_.name(); }

    std::optional<StorageStats>
    storage() const override
    {
        return real_.storage();
    }

  private:
    void
    record(PredCall::Op op, Addr blk, Pc pc, bool a, bool b, bool answer)
    {
        hooks_.predCalls.push_back({blk, pc, node_, op, a, b, answer});
    }

    InvalidationPredictor &real_;
    NodeId node_;
    TraceHooks &hooks_;
};

/** DsmSystem's routing of inbound messages: true = home directory. */
bool
toDirectory(MsgType t)
{
    switch (t) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::InvAck:
      case MsgType::WbData:
      case MsgType::SelfInvS:
      case MsgType::SelfInvX:
      case MsgType::EvictS:
      case MsgType::EvictX:
        return true;
      default:
        return false;
    }
}

void
TraceHooks::attach(DsmSystem &sys, const SystemParams &sp)
{
    for (NodeId n = 0; n < sp.numNodes; ++n) {
        DsmNode &node = sys.node(n);
        // The base system's NullPredictor stands for "no predictor" and
        // stays unwrapped, so the predictor layer reads zero there.
        if (sp.mode != PredictorMode::Off) {
            auto w = std::make_unique<TracedPredictor>(*node.predictor, n,
                                                       *this);
            node.cacheCtrl->setPredictor(w.get(), sp.mode);
            // setPredictor pointed the wrapper's port at the controller;
            // asynchronous self-invalidations come from the real one.
            node.predictor->setPort(node.cacheCtrl.get());
            wrappers.push_back(std::move(w));
        }
        sys.network().setSink(n, [this, &sys, n](const Message &msg) {
            messages.push_back(msg);
            DsmNode &dst = sys.node(n);
            if (toDirectory(msg.type)) {
                spans.begin(Layer::DirRecv);
                dst.dirCtrl->receive(msg);
            } else {
                spans.begin(Layer::CacheRecv);
                dst.cacheCtrl->receive(msg);
            }
            spans.end();
        });
        node.dirCtrl->setVerifyHook(
            [this, &sys](NodeId who, Addr blk, bool premature, bool timely) {
                spans.begin(Layer::Verify);
                sys.node(who).cacheCtrl->onDirVerify(blk, premature,
                                                     timely);
                spans.end();
            });
    }
}

/** Forwards to a kernel and times its setup() from outside. */
class TimedKernel final : public KernelBase
{
  public:
    TimedKernel(std::unique_ptr<KernelBase> inner, SpanLog *spans)
        : inner_(std::move(inner)), spans_(spans)
    {
    }

    std::string name() const override { return inner_->name(); }

    void
    setup(AddressSpace &as, MemoryValues &mem,
          const KernelConfig &cfg) override
    {
        if (spans_)
            spans_->begin(Layer::Setup);
        Clock::time_point t0 = Clock::now();
        inner_->setup(as, mem, cfg);
        setupS = secondsSince(t0);
        if (spans_)
            spans_->end();
    }

    Task<void> run(ThreadCtx &ctx) override { return inner_->run(ctx); }

    double setupS = 0.0;

  private:
    std::unique_ptr<KernelBase> inner_;
    SpanLog *spans_;
};

// ---- one experiment -------------------------------------------------------

struct KernelRun
{
    bool ok = false; //!< completed without an exception
    std::string error;
    RunResult result;
    double runS = 0.0; //!< DsmSystem::run minus the kernel's setup
    /** Stats dump plus engine totals: byte-identical across passes. */
    std::string fingerprint;
};

/** One experiment; its statistics are folded into @p merged if given. */
KernelRun
runKernel(const Workload &w, const std::string &kernel,
          const RunSettings &s, TraceHooks *hooks,
          StatGroup *merged = nullptr)
{
    KernelRun kr;
    try {
        SystemParams sp = paramsFor(w, s);
        KernelConfig cfg = configFor(kernel, w, s);
        TimedKernel k(makeKernel(kernel), hooks ? &hooks->spans : nullptr);

        DsmSystem sys(sp);
        if (hooks) {
            hooks->attach(sys, sp);
            hooks->spans.beginKernel(hooks->kernel);
        }
        Clock::time_point t0 = Clock::now();
        kr.result = sys.run(k, cfg);
        kr.runS = secondsSince(t0) - k.setupS;
        if (hooks)
            hooks->spans.end();
        kr.ok = kr.result.completed;
        if (!kr.ok)
            kr.error = kernel + ": " + kr.result.abortReason;

        StatGroup &stats = sys.stats();
        std::ostringstream os;
        stats.dump(os);
        os << "cycles " << kr.result.cycles << "\nevents "
           << kr.result.eventsExecuted << "\nmemOps " << kr.result.memOps
           << "\n";
        kr.fingerprint = os.str();
        if (merged)
            merged->mergeFrom(stats);
    } catch (const std::exception &e) {
        kr.ok = false;
        kr.error = kernel + ": " + e.what();
    }
    return kr;
}

using Pass = std::vector<KernelRun>;

// ---- checks ---------------------------------------------------------------

struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 20)
                failures.push_back(what);
            std::fprintf(stderr, "ltpbench: check failed: %s\n",
                         what.c_str());
        }
    }

    /** Every kernel completed and (given a reference) dumped the same. */
    void
    expectPass(const Pass &pass, const Pass *reference, const char *label)
    {
        const auto &names = allKernelNames();
        for (std::size_t k = 0; k < pass.size(); ++k) {
            const KernelRun &kr = pass[k];
            bool same = !reference ||
                        kr.fingerprint == (*reference)[k].fingerprint;
            std::string what = std::string(label) + " " + names[k];
            if (!kr.ok)
                what += " did not complete: " + kr.error;
            else if (!same)
                what += ": stats dump differs from the warm-up pass";
            expect(kr.ok && same, what);
        }
    }
};

Pass
runPass(const Workload &w, const RunSettings &s,
        StatGroup *merged = nullptr)
{
    Pass pass;
    for (const auto &kernel : allKernelNames())
        pass.push_back(runKernel(w, kernel, s, nullptr, merged));
    return pass;
}

// ---- replays --------------------------------------------------------------

/** The port a replayed predictor reports to; replays act on nothing. */
class NullPort final : public SelfInvalidationPort
{
  public:
    void requestSelfInvalidate(Addr) override {}
};

struct ReplayResult
{
    bool ok = false;
    double seconds = 0.0;
};

/**
 * Feed @p calls, in recorded order, to one fresh predictor per node.
 * Times the whole loop (no per-call timer); ok iff every onTouch
 * answers as recorded.
 */
ReplayResult
replayPredictor(const std::vector<PredCall> &calls, const SystemParams &sp)
{
    if (sp.predictor != PredictorKind::LtpPerBlock)
        throw std::logic_error("predictor replay supports per-block LTP");
    NullPort port;
    std::vector<std::unique_ptr<InvalidationPredictor>> preds;
    for (NodeId n = 0; n < sp.numNodes; ++n) {
        preds.push_back(std::make_unique<LtpPerBlock>(sp.ltp));
        preds.back()->setPort(&port);
    }
    std::uint64_t mismatches = 0;
    Clock::time_point t0 = Clock::now();
    for (const PredCall &c : calls) {
        InvalidationPredictor &p = *preds[c.node];
        switch (c.op) {
          case PredCall::Touch:
            mismatches += p.onTouch(c.blk, c.pc, c.a, c.b) != c.answer;
            break;
          case PredCall::Invalidation:
            p.onInvalidation(c.blk);
            break;
          case PredCall::Verification:
            p.onVerification(c.blk, c.a);
            break;
          case PredCall::FillInfo:
            p.onFillInfo(c.blk, FillInfo{c.a});
            break;
          case PredCall::SyncBoundary:
            p.onSyncBoundary();
            break;
        }
    }
    return {mismatches == 0, secondsSince(t0)};
}

/** Order-sensitive digest of one (src, dst) pair's message stream. */
std::uint64_t
mix(std::uint64_t h, const Message &m)
{
    for (std::uint64_t v : {std::uint64_t(m.type), std::uint64_t(m.addr),
                            std::uint64_t(m.requester), m.version,
                            std::uint64_t(m.dsiCandidate),
                            std::uint64_t(m.verification)}) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
}

/**
 * Re-inject every recorded message at its original injection tick,
 * network stamps cleared, into a fresh interconnect on a 1-shard
 * ParallelScheduler. Times the engine run; ok iff every message is
 * delivered and each (src, dst) pair's stream arrives in recorded
 * order.
 */
ReplayResult
replayNetwork(std::vector<Message> msgs, const SystemParams &sp)
{
    const NodeId nodes = sp.numNodes;
    std::vector<std::uint64_t> expected(std::size_t(nodes) * nodes, 0);
    for (const Message &m : msgs)
        expected[m.src * nodes + m.dst] =
            mix(expected[m.src * nodes + m.dst], m);
    // Stable: a pair's messages keep their (FIFO) delivery order.
    std::stable_sort(msgs.begin(), msgs.end(),
                     [](const Message &x, const Message &y) {
                         return x.injectedAt < y.injectedAt;
                     });

    ParallelScheduler ctx(1, nodes,
                          std::max<Tick>(1, networkLookahead(sp.net).ticks));
    std::unique_ptr<Interconnect> net = makeInterconnect(ctx, nodes, sp.net);
    std::vector<std::uint64_t> seen(expected.size(), 0);
    std::size_t delivered = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        net->setSink(n, [&](const Message &m) {
            seen[m.src * nodes + m.dst] = mix(seen[m.src * nodes + m.dst], m);
            ++delivered;
        });
    }

    struct Injector
    {
        const std::vector<Message> &msgs;
        Interconnect &net;
        EventQueue &eq;
        std::size_t next = 0;

        void
        fire()
        {
            Tick now = eq.now();
            while (next < msgs.size() && msgs[next].injectedAt == now) {
                Message m = msgs[next++];
                m.netSeq = 0;
                m.netVcFlags = 0;
                m.injectedAt = 0;
                net.send(m);
            }
            if (next < msgs.size())
                eq.scheduleAt(msgs[next].injectedAt, [this] { fire(); });
        }
    } injector{msgs, *net, ctx.queueFor(0)};
    if (!msgs.empty()) {
        ctx.queueFor(0).scheduleAt(msgs.front().injectedAt,
                                   [&injector] { injector.fire(); });
    }

    Clock::time_point t0 = Clock::now();
    ctx.runUntil(sp.maxTicks);
    double secs = secondsSince(t0);
    return {delivered == msgs.size() && seen == expected, secs};
}

// ---- cores ----------------------------------------------------------------

/**
 * The cores this process may run on. On a shared host one core can stay
 * slowed by a busy neighbour for minutes, and an otherwise idle
 * scheduler keeps a single thread on its core for the whole run. So the
 * setup repetitions and the timed passes move from core to core, and
 * each statistic can find the best core as well as the quietest moment.
 */
class CoreRotation
{
  public:
    CoreRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    cores_.push_back(c);
            }
        }
    }

    std::size_t
    size() const
    {
        return std::max<std::size_t>(1, cores_.size());
    }

    /** Move to allowed core @p i (mod their count); best effort. */
    void
    pin(std::size_t i) const
    {
        if (cores_.empty())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cores_[i % cores_.size()], &set);
        sched_setaffinity(0, sizeof(set), &set);
    }

  private:
    std::vector<int> cores_;
};

// ---- output ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class JsonOut
{
  public:
    void
    key(const std::string &k)
    {
        sep();
        os_ << '"' << k << "\":";
        fresh_ = true;
    }

    void
    open(char c)
    {
        sep();
        os_ << c;
        fresh_ = true;
    }

    void
    close(char c)
    {
        os_ << c;
        fresh_ = false;
    }

    void
    str(const std::string &v)
    {
        sep();
        os_ << '"';
        for (char c : v) {
            if (c == '"' || c == '\\')
                os_ << '\\' << c;
            else if (c == '\n')
                os_ << "\\n";
            else if (std::uint8_t(c) >= 0x20)
                os_ << c;
        }
        os_ << '"';
    }

    void
    num(double v)
    {
        sep();
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
        os_ << buf;
    }

    void
    uint(std::uint64_t v)
    {
        sep();
        os_ << v;
    }

    void
    boolean(bool v)
    {
        sep();
        os_ << (v ? "true" : "false");
    }

    void
    metrics(const std::vector<Metric> &ms)
    {
        open('{');
        for (const Metric &m : ms) {
            key(m.name);
            open('{');
            key("value");
            num(m.value);
            key("unit");
            str(m.unit);
            close('}');
        }
        close('}');
    }

    std::string text() const { return os_.str(); }

  private:
    void
    sep()
    {
        if (!fresh_)
            os_ << ',';
        fresh_ = false;
    }

    std::ostringstream os_;
    bool fresh_ = true;
};

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = std::size_t(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---- the workload run ------------------------------------------------------

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string spansOut;
};

/**
 * Setup repetitions of one core. A repetition constructs every kernel's
 * DsmSystem and runs its KernelBase::setup, without simulating.
 */
struct SetupSamples
{
    std::vector<double> construct, kernel, total;

    void
    add(const Workload &w, const RunSettings &s)
    {
        double c = 0.0, k = 0.0;
        for (const auto &name : allKernelNames()) {
            SystemParams sp = paramsFor(w, s);
            KernelConfig cfg = configFor(name, w, s);
            auto kernelObj = makeKernel(name);
            Clock::time_point t0 = Clock::now();
            DsmSystem sys(sp);
            Clock::time_point t1 = Clock::now();
            kernelObj->setup(sys.addressSpace(), sys.memory(), cfg);
            k += secondsSince(t1);
            c += std::chrono::duration<double>(t1 - t0).count();
        }
        construct.push_back(c);
        kernel.push_back(k);
        total.push_back(c + k);
    }
};
/** Span records kept per kernel for the Chrome trace. */
constexpr std::size_t spansPerKernel = 4000;

/** Paper-error passes: base and active cycles, passive accuracy. */
struct Fidelity
{
    double speedupGeomean = 0.0;
    double predictedPct = 0.0;
    double mispredictedPct = 0.0;
    std::vector<RunResult> base, active, passive;
};

Fidelity
measureFidelity(const Workload &w, const RunSettings &s,
                const Pass &reference, Checks &checks)
{
    const Workload &p2pBase = workloads[0];
    const Workload &p2pActive = workloads[1];
    const Workload &p2pPassive = workloads[2];
    auto results = [&](const Workload &f, const char *label) {
        std::vector<RunResult> rs;
        if (&f == &w) {
            for (const KernelRun &kr : reference)
                rs.push_back(kr.result);
            return rs;
        }
        Pass pass = runPass(f, s);
        checks.expectPass(pass, nullptr, label);
        for (const KernelRun &kr : pass)
            rs.push_back(kr.result);
        return rs;
    };

    Fidelity fid;
    fid.base = results(p2pBase, "fidelity base");
    fid.active = results(p2pActive, "fidelity ltp-active");
    fid.passive = results(p2pPassive, "fidelity ltp-passive");
    double logSum = 0.0;
    for (std::size_t k = 0; k < fid.base.size(); ++k) {
        logSum += std::log(ratio(double(fid.base[k].cycles),
                                 double(fid.active[k].cycles)));
        fid.predictedPct += 100.0 * fid.passive[k].accuracy();
        fid.mispredictedPct += 100.0 * fid.passive[k].mispredictionRate();
    }
    double n = double(fid.base.size());
    fid.speedupGeomean = std::exp(logSum / n);
    fid.predictedPct /= n;
    fid.mispredictedPct /= n;
    return fid;
}

/** Chrome trace events, one per line; run.py joins the workloads'. */
void
writeSpans(const std::string &path, const SpanLog &log, const Workload &w)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    const unsigned pid = unsigned(&w - workloads);
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"args\":{\"name\":\"" << w.name << "\"}}\n";
    const auto &names = allKernelNames();
    const auto &recs = log.records();
    char buf[320];
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const SpanLog::Record &r = recs[i];
        const std::string &kernel = names[r.kernel];
        const char *name = r.layer == Layer::Kernel
                               ? kernel.c_str()
                               : layerNames[std::size_t(r.layer)];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":0,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,"
                      "\"kernel\":\"%s\"}}\n",
                      name, layerNames[std::size_t(r.layer)],
                      double(r.startNs) / 1e3, double(r.durNs) / 1e3, pid,
                      i, int(r.parent), kernel.c_str());
        out << buf;
    }
}

int
runWorkload(const Options &opt)
{
    const Workload &w = *opt.workload;
    RunSettings s;
    s.seed = opt.seed;
    s.iterScale = opt.smoke ? 0.1 : 1.0;
    s.guardChecks = opt.smoke;
    const auto &names = allKernelNames();
    const std::size_t nk = names.size();
    Checks checks;

    CoreRotation cores;
    std::vector<SetupSamples> setups(cores.size());

    // 1. Warm-up pass: the reference every later run must reproduce. It
    // counts against the --seconds budget.
    Clock::time_point t0 = Clock::now();
    cores.pin(0);
    StatGroup refStats; // the warm-up pass's statistics, all kernels
    Pass reference = runPass(w, s, &refStats);
    checks.expectPass(reference, nullptr, "warm-up");

    // 2. Timed passes, one core after another; a smoke run times its
    // single pass. After each kernel run comes one setup repetition, so
    // the repetitions spread over the whole run like the passes do. Only
    // timings are kept: the harness's own memory must not grow with the
    // number of passes.
    std::vector<double> minRun(nk, 1e300), passWalls;
    auto keepTimes = [&](const Pass &p) {
        double wall = 0.0;
        for (std::size_t k = 0; k < nk; ++k) {
            minRun[k] = std::min(minRun[k], p[k].runS);
            wall += p[k].runS;
        }
        passWalls.push_back(wall);
    };
    if (opt.smoke) {
        keepTimes(reference);
        setups[0].add(w, s);
    } else {
        do {
            std::size_t core = (passWalls.size() + 1) % cores.size();
            cores.pin(core);
            Pass pass;
            for (const auto &kernel : names) {
                pass.push_back(runKernel(w, kernel, s, nullptr));
                setups[core].add(w, s);
            }
            checks.expectPass(pass, &reference, "timed");
            keepTimes(pass);
        } while (secondsSince(t0) < opt.seconds);
    }
    double peakRss = peakRssMb();
    // Each setup statistic is the median of the core where the total's
    // median is lowest.
    const SetupSamples *best = nullptr;
    for (const SetupSamples &c : setups) {
        if (!c.total.empty() &&
            (!best || quantile(c.total, 0.5) < quantile(best->total, 0.5)))
            best = &c;
    }
    const SetupSamples &setup = *best;

    double wallS = 0.0;
    std::uint64_t memOps = 0;
    for (std::size_t k = 0; k < nk; ++k) {
        wallS += minRun[k];
        memOps += reference[k].result.memOps;
    }

    std::vector<Metric> e2e = {
        {"wall_s", wallS, "s"},
        {"mem_ops_per_s", ratio(double(memOps), wallS), "ops/s"},
        {"setup_s", quantile(setup.total, 0.5), "s"},
        {"peak_rss_mb", peakRss, "MB"},
    };

    // Simulated (exact) per-layer values from the reference pass.
    RunResult tot;
    double peakLinkUtil = 0.0;
    for (const KernelRun &kr : reference) {
        const RunResult &r = kr.result;
        tot.cycles += r.cycles;
        tot.eventsExecuted += r.eventsExecuted;
        tot.memOps += r.memOps;
        tot.storage.totalEntries += r.storage.totalEntries;
        tot.engineProfile.overflowMigrations +=
            r.engineProfile.overflowMigrations;
        peakLinkUtil = std::max(peakLinkUtil, r.peakLinkUtilization());
    }
    auto counter = [&](const char *name) {
        return double(refStats.counterValue(name));
    };
    auto average = [&](const char *name) {
        return refStats.averageMean(name);
    };
    const Histogram *latency = refStats.findHistogram("net.endToEndLatency");
    double hits = counter("cache.hits"), misses = counter("cache.misses");
    double msgs = counter("net.msgs"), invals = counter("pred.invalidations");
    double selfInvs = counter("pred.selfInvsIssued");
    double timely = counter("dir.selfInvTimelyCorrect");
    double late = counter("dir.selfInvLateCorrect");

    // Exact: deterministic for a given seed, whatever the host.
    const double events = double(tot.eventsExecuted);
    const double cycles = double(tot.cycles);
    std::vector<Metric> exact = {
        {"sim.events", events, "count"},
        {"sim.cycles", cycles, "cyc"},
        {"sim.events_per_msg", ratio(events, msgs), "ratio"},
        {"sim.events_per_kcycle", ratio(events, cycles / 1e3), "ratio"},
        {"sim.overflow_migrations",
         double(tot.engineProfile.overflowMigrations), "count"},
        {"net.msgs", msgs, "count"},
        {"net.data_msgs", counter("net.dataMsgs"), "count"},
        {"net.latency_mean_cyc", average("net.endToEndLatency"), "cyc"},
        {"net.latency_p99_cyc", latency ? latency->percentile(0.99) : 0.0,
         "cyc"},
        {"net.hops_per_msg", average("net.hopsPerMsg"), "ratio"},
        {"net.peak_link_util", peakLinkUtil, "ratio"},
        {"net.escape_reroutes", counter("net.escapeReroutes"), "count"},
        {"net.reorder_held", counter("net.reorderHeld"), "count"},
        {"dir.requests", counter("dir.requests"), "count"},
        {"dir.queueing_mean_cyc", average("dir.queueing"), "cyc"},
        {"dir.service_mean_cyc", average("dir.service"), "cyc"},
        {"dir.stale_drops", counter("dir.staleDrops"), "count"},
        {"cache.hits", hits, "count"},
        {"cache.misses", misses, "count"},
        {"cache.upgrades", counter("cache.upgrades"), "count"},
        {"cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"cache.miss_latency_cyc", average("cache.missLatency"), "cyc"},
        {"pred.accuracy", ratio(counter("pred.predicted"), invals),
         "ratio"},
        {"pred.mispredict_ratio", ratio(counter("pred.mispredicted"), invals),
         "ratio"},
        {"pred.self_invs", selfInvs, "count"},
        {"pred.premature_ratio",
         ratio(counter("dir.selfInvPremature"), selfInvs), "ratio"},
        {"pred.timeliness", ratio(timely, timely + late), "ratio"},
        {"pred.storage_entries", double(tot.storage.totalEntries),
         "count"},
        {"kernel.mem_ops", double(tot.memOps), "count"},
    };

    std::vector<Metric> layer = exact;
    layer.push_back({"kernel.setup_s", quantile(setup.kernel, 0.5), "s"});
    layer.push_back({"dsm.construct_s", quantile(setup.construct, 0.5), "s"});
    layer.push_back({"run.wall_p50_s", quantile(passWalls, 0.5), "s"});
    layer.push_back({"run.wall_q1_s", quantile(passWalls, 0.25), "s"});
    layer.push_back({"run.wall_q3_s", quantile(passWalls, 0.75), "s"});
    layer.push_back({"run.passes", double(passWalls.size()), "count"});

    std::optional<Fidelity> fidelity;
    if (opt.trace) {
        // 3. The traced pass, with per-kernel replays.
        SpanCost cost = calibrateSpans();
        SpanLog log(opt.spansOut.empty() ? 0 : spansPerKernel);
        SystemParams sp = paramsFor(w, s);
        Pass traced;
        double netReplayS = 0.0, predReplayS = 0.0, tracedWall = 0.0;
        std::uint64_t replayMsgs = 0, replayCalls = 0;
        for (std::size_t k = 0; k < nk; ++k) {
            TraceHooks hooks(log, unsigned(k));
            traced.push_back(runKernel(w, names[k], s, &hooks));
            tracedWall += traced.back().runS;

            ReplayResult net = replayNetwork(std::move(hooks.messages), sp);
            checks.expect(net.ok, "network replay of " + names[k] +
                                      " lost or reordered messages");
            netReplayS += net.seconds;
            replayMsgs += traced.back().result.netMsgs;
            if (!hooks.predCalls.empty()) {
                ReplayResult pr = replayPredictor(hooks.predCalls, sp);
                checks.expect(pr.ok, "predictor replay of " + names[k] +
                                         " answered onTouch differently");
                predReplayS += pr.seconds;
                replayCalls += hooks.predCalls.size();
            }
        }
        checks.expectPass(traced, &reference, "traced");

        // Self time, less the calibrated timer cost: a span's measured
        // duration holds `insideNs` of its own timing, and each direct
        // child adds the rest of its cost to the parent.
        std::uint64_t spans = 0;
        auto selfS = [&](Layer l) {
            const SpanLog::Totals &t = log.totals(l);
            double ns = double(t.rawSelfNs) -
                        double(t.calls) * cost.insideNs -
                        double(t.children) * (cost.totalNs - cost.insideNs);
            return std::max(0.0, ns) / 1e9;
        };
        for (std::size_t l = 1; l < std::size_t(Layer::Count); ++l)
            spans += log.totals(Layer(l)).calls;
        // The root's own time less its setup child is everything the
        // wrappers do not cover: engine, network, coroutine resumes,
        // the hit path and deferred directory work.
        double otherS = selfS(Layer::Kernel);
        auto pct = [&](double x) { return 100.0 * ratio(x, tracedWall); };
        std::uint64_t predCalls = log.totals(Layer::Pred).calls;

        layer.push_back({"dir.recv_calls",
                         double(log.totals(Layer::DirRecv).calls), "count"});
        layer.push_back({"dir.recv_s", selfS(Layer::DirRecv), "s"});
        layer.push_back({"cache.recv_calls",
                         double(log.totals(Layer::CacheRecv).calls),
                         "count"});
        layer.push_back({"cache.recv_s", selfS(Layer::CacheRecv), "s"});
        layer.push_back({"pred.calls", double(predCalls), "count"});
        layer.push_back({"pred.self_pct", pct(selfS(Layer::Pred)), "%"});
        layer.push_back({"pred.replay_calls_per_us",
                         ratio(double(replayCalls), predReplayS * 1e6),
                         "1/us"});
        layer.push_back({"verify.calls",
                         double(log.totals(Layer::Verify).calls), "count"});
        layer.push_back({"verify.self_pct", pct(selfS(Layer::Verify)), "%"});
        layer.push_back({"net.replay_s", netReplayS, "s"});
        layer.push_back({"net.replay_ns_per_msg",
                         ratio(netReplayS * 1e9, double(replayMsgs)), "ns"});
        layer.push_back({"other.s", otherS, "s"});
        layer.push_back({"trace.pass_s", tracedWall, "s"});
        layer.push_back({"trace.overhead_pct",
                         100.0 * (ratio(tracedWall, wallS) - 1.0), "%"});
        layer.push_back({"trace.span_ns", cost.totalNs, "ns"});
        layer.push_back({"trace.spans", double(spans), "count"});

        fidelity = measureFidelity(w, s, reference, checks);
        double speedupErr = std::fabs(
            100.0 * (fidelity->speedupGeomean - 1.0) - paperLtpSpeedupPct);
        double accErr =
            std::fabs(fidelity->predictedPct - paperLtpPredictedPct);
        double mispredErr =
            std::fabs(fidelity->mispredictedPct - paperLtpMispredPct);
        exact.push_back({"paper.speedup_err_pp", speedupErr, "pp"});
        exact.push_back({"paper.accuracy_err_pp", accErr, "pp"});
        exact.push_back({"paper.mispredict_err_pp", mispredErr, "pp"});
        for (std::size_t i = exact.size() - 3; i < exact.size(); ++i)
            layer.push_back(exact[i]);

        if (!opt.spansOut.empty())
            writeSpans(opt.spansOut, log, w);
    }

    JsonOut j;
    j.open('{');
    j.key("workload");
    j.str(w.name);
    j.key("seed");
    j.uint(opt.seed);
    j.key("correct");
    j.boolean(checks.failed == 0);
    j.key("attempted");
    j.uint(checks.attempted);
    j.key("failed");
    j.uint(checks.failed);
    j.key("failures");
    j.open('[');
    for (const auto &f : checks.failures)
        j.str(f);
    j.close(']');
    j.key("passes");
    j.uint(passWalls.size());
    j.key("end_to_end");
    j.metrics(e2e);
    j.key("per_layer");
    j.metrics(layer);
    j.key("exact");
    j.open('[');
    for (const Metric &m : exact)
        j.str(m.name);
    j.close(']');
    if (fidelity) {
        j.key("fidelity");
        j.open('{');
        j.key("ltp_speedup_geomean");
        j.num(fidelity->speedupGeomean);
        j.key("ltp_predicted_pct");
        j.num(fidelity->predictedPct);
        j.key("ltp_mispredicted_pct");
        j.num(fidelity->mispredictedPct);
        j.key("kernels");
        j.open('{');
        for (std::size_t k = 0; k < nk; ++k) {
            j.key(names[k]);
            j.open('{');
            j.key("base_cycles");
            j.uint(fidelity->base[k].cycles);
            j.key("ltp_cycles");
            j.uint(fidelity->active[k].cycles);
            j.key("predicted_pct");
            j.num(100.0 * fidelity->passive[k].accuracy());
            j.key("mispredicted_pct");
            j.num(100.0 * fidelity->passive[k].mispredictionRate());
            j.close('}');
        }
        j.close('}');
        j.close('}');
    }
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return checks.failed == 0 ? 0 : 3;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "ltpbench: %s\nusage: ltpbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--spans FILE]\n"
                 "workloads:",
                 msg);
    for (const Workload &w : workloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "ltpbench: refusing to run without NDEBUG: "
                         "timings of an assert-enabled build are not "
                         "comparable\n");
    return 2;
#endif
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool has = i + 1 < argc;
        if (a == "--workload" && has) {
            std::string name = argv[++i];
            for (const Workload &w : workloads) {
                if (name == w.name)
                    opt.workload = &w;
            }
            if (!opt.workload)
                return usage(("unknown workload '" + name + "'").c_str());
        } else if (a == "--seed" && has) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has) {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && has) {
            opt.trace = std::string(argv[++i]) != "0";
        } else if (a == "--smoke") {
            opt.smoke = true;
        } else if (a == "--spans" && has) {
            opt.spansOut = argv[++i];
        } else {
            return usage(("bad argument '" + a + "'").c_str());
        }
    }
    if (!opt.workload)
        return usage("--workload is required");
    try {
        return runWorkload(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ltpbench: fatal: %s\n", e.what());
        return 1;
    }
}
