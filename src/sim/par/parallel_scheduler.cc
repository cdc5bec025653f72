#include "sim/par/parallel_scheduler.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "obs/metrics.hh"

namespace ltp
{

namespace
{

/**
 * Which shard the current OS thread executes. Shard threads are pinned
 * to one partition for a whole run, so post() can find its outgoing
 * lane without any synchronization.
 */
thread_local unsigned tlsShard = 0;

/**
 * Node -> shard map. Contiguous blocks: neighbors (and mesh rows) tend
 * to share a shard, which keeps cross-shard traffic low on local
 * topologies.
 */
std::vector<unsigned>
partition(unsigned shards, NodeId num_nodes)
{
    std::vector<unsigned> shard(num_nodes);
    for (NodeId n = 0; n < num_nodes; ++n)
        shard[n] = unsigned((std::uint64_t(n) * shards) / num_nodes);
    return shard;
}

} // namespace

ParallelScheduler::ParallelScheduler(unsigned shards, NodeId num_nodes,
                                     Tick window,
                                     const ObserverConfig &observers)
    : shard_(partition(shards, num_nodes)),
      window_(window),
      tracer_(observers.trace, shard_),
      checks_(observers.checkMask, num_nodes, observers.pairFifo),
      faults_(observers.faults),
      barrier_(shards)
{
    assert(shards >= 1 && shards <= num_nodes);
    assert(window >= 1 && "conservative window needs lookahead");

    parts_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
        auto p = std::make_unique<Partition>(
            faults_.calendarOverflowPeriod());
        if (shards > 1)
            p->out = std::vector<Lane>(shards);
        parts_.push_back(std::move(p));
    }
}

ParallelScheduler::~ParallelScheduler() = default;

Tick
ParallelScheduler::postingNow() const
{
    return parts_[tlsShard]->eq.now();
}

void
ParallelScheduler::postStaged(NodeId dst, Tick when, std::uint64_t chan,
                              EventQueue::Callback &&cb)
{
    unsigned from = tlsShard;
    unsigned to = shard_[dst];
    assert(from < parts_.size());
    bool storm = faults_.on(guard::FaultKind::SpillStorm);
    if (parts_[from]->out[to].push(PostItem{when, chan, std::move(cb)},
                                   storm))
        tracer_.engineInstant(from, "mailbox spill", when, to);
}

void
ParallelScheduler::applyInbox(unsigned shard)
{
    // The queue sorts every post into its (tick, channel, FIFO) place,
    // so lanes apply in any order; only each lane's own FIFO matters (a
    // channel is fed by one shard, hence one lane).
    EventQueue &eq = parts_[shard]->eq;
    for (auto &src : parts_) {
        Lane &lane = src->out[shard];
        PostItem item;
        while (lane.ring.tryPop(item))
            eq.scheduleAtChannel(item.when, item.chan, std::move(item.cb));
        for (PostItem &spilled : lane.spill)
            eq.scheduleAtChannel(spilled.when, spilled.chan,
                                 std::move(spilled.cb));
        lane.spill.clear();
    }
}

void
ParallelScheduler::planWindow(Tick limit)
{
    if (error_) {
        stop_.store(true, std::memory_order_relaxed);
        return;
    }
    Tick w = tickNever;
    for (auto &p : parts_)
        w = std::min(w, p->nextTick.load(std::memory_order_relaxed));
    if (w == tickNever || w > limit) {
        stop_.store(true, std::memory_order_relaxed);
        return;
    }
    // Metrics sampling belongs exactly here: the completion phase runs
    // serially with every other shard parked, so the merged StatGroup
    // is quiescent and reading it perturbs nothing the shards observe.
    sampleAt(w);
    Tick end = std::min(w + window_ - 1, limit);
    // Never straddle the next due tick (after sampleAt, due > w), so
    // the sample lands before the first event at or after it.
    if (sampler_)
        end = std::min(end, sampler_->nextDue() - 1);
    windowStart_.store(w, std::memory_order_relaxed);
    windowEnd_.store(end, std::memory_order_relaxed);
    ++rounds_;
    windowTicksSum_ += end - w + 1;
}

void
ParallelScheduler::sampleAt(Tick w)
{
    if (sampler_ && w >= sampler_->nextDue())
        sampler_->maybeSample(w, stats(), eventsExecuted());
}

void
ParallelScheduler::workerLoop(unsigned shard, Tick limit)
{
    using Clock = std::chrono::steady_clock;
    auto ns = [](Clock::time_point a, Clock::time_point b) {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
    };

    tlsShard = shard;
    Partition &p = *parts_[shard];
    std::uint64_t iter = 0;
    for (;; ++iter) {
        applyInbox(shard);
        p.nextTick.store(p.eq.nextEventTick(), std::memory_order_relaxed);

        if (faults_.on(guard::FaultKind::BarrierWedge) &&
            faults_.wedgeHit(shard, iter)) {
            // Induced wedge: this shard stops arriving at the barrier,
            // which freezes every other shard mid-round — exactly the
            // failure the watchdog's barrier-stall detector exists for.
            // Sit out until an abort (or normal stop) releases us.
            while (!stop_.load(std::memory_order_relaxed))
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            break;
        }

        auto t0 = Clock::now();
        bool parked =
            barrier_.arriveAndWait([this, limit] { planWindow(limit); });
        auto t1 = Clock::now();
        p.barrierWaitNs += ns(t0, t1);
        if (stop_.load(std::memory_order_relaxed))
            break;

        Tick wStart = windowStart_.load(std::memory_order_relaxed);
        Tick wEnd = windowEnd_.load(std::memory_order_relaxed);
        if (tracer_.on(obs::Cat::Engine)) {
            if (parked)
                tracer_.engineInstant(shard, "barrier park", wStart,
                                      ns(t0, t1));
            tracer_.engineSpan(shard, "window", wStart, wEnd + 1,
                               wEnd - wStart + 1);
        }

        try {
            p.eq.runUntil(wEnd);
        } catch (...) {
            std::lock_guard<std::mutex> g(errorMu_);
            if (!error_)
                error_ = std::current_exception();
        }

        auto t2 = Clock::now();
        // Publish lanes for the next round.
        parked = barrier_.arriveAndWait();
        auto t3 = Clock::now();
        p.barrierWaitNs += ns(t2, t3);
        if (parked)
            tracer_.engineInstant(shard, "barrier park", wEnd, ns(t2, t3));
    }
}

Tick
ParallelScheduler::runDirect(Tick limit)
{
    // Same sample ticks as planWindow(): run to each due tick - 1, then
    // sample before the first event at or after it.
    EventQueue &eq = parts_[0]->eq;
    while (sampler_ && sampler_->nextDue() <= limit) {
        eq.runUntil(sampler_->nextDue() - 1);
        Tick next = eq.nextEventTick();
        if (next == tickNever || next > limit || eq.abortRequested())
            break;
        sampleAt(next);
    }
    return eq.runUntil(limit);
}

obs::EngineProfile
ParallelScheduler::profile() const
{
    obs::EngineProfile prof;
    prof.rounds = rounds_;
    prof.windowTicks = windowTicksSum_;
    prof.barrierParks = barrier_.parks();
    for (const auto &p : parts_) {
        prof.barrierWaitNs += p->barrierWaitNs;
        prof.overflowMigrations += p->eq.overflowMigrations();
        for (const auto &lane : p->out)
            prof.spilledPosts += lane.spilled;
    }
    return prof;
}

Tick
ParallelScheduler::runUntil(Tick limit)
{
    stop_.store(false, std::memory_order_relaxed);

    if (directDispatch())
        return runDirect(limit);

    std::vector<std::thread> workers;
    workers.reserve(parts_.size() - 1);
    for (unsigned s = 1; s < parts_.size(); ++s)
        workers.emplace_back([this, s, limit] { workerLoop(s, limit); });
    workerLoop(0, limit);
    for (auto &t : workers)
        t.join();

    if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        std::rethrow_exception(e);
    }
    return now();
}

void
ParallelScheduler::requestAbort(const std::string &reason)
{
    {
        std::lock_guard<std::mutex> g(abortMu_);
        if (abortReason_.empty())
            abortReason_ = reason;
    }
    // Order matters: raise the stop flag first so any shard released
    // from the barrier (or the wedge fault's poll loop) immediately
    // exits its worker loop, then stop the event loops, then tear down
    // the barrier so parked shards wake to observe the flag.
    stop_.store(true, std::memory_order_seq_cst);
    for (auto &p : parts_)
        p->eq.requestAbort();
    if (!directDispatch())
        barrier_.abort();
}

std::string
ParallelScheduler::abortReason() const
{
    std::lock_guard<std::mutex> g(abortMu_);
    return abortReason_;
}

Tick
ParallelScheduler::tickApprox() const
{
    Tick t = 0;
    for (const auto &p : parts_)
        t = std::max(t, p->eq.tickApprox());
    return t;
}

std::uint64_t
ParallelScheduler::executedApprox() const
{
    std::uint64_t n = 0;
    for (const auto &p : parts_)
        n += p->eq.executedApprox();
    return n;
}

Tick
ParallelScheduler::now() const
{
    Tick t = 0;
    for (const auto &p : parts_)
        t = std::max(t, p->eq.now());
    return t;
}

std::uint64_t
ParallelScheduler::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &p : parts_)
        n += p->eq.eventsExecuted();
    return n;
}

StatGroup &
ParallelScheduler::stats()
{
    // Rebuild in place: resetAll() zeroes entries without erasing them
    // and names only ever accumulate, so references handed out by a
    // previous call stay valid (std::map nodes are stable). It is still
    // a snapshot — writes to it are discarded by the next rebuild.
    merged_.resetAll();
    for (auto &p : parts_)
        merged_.mergeFrom(p->stats);
    return merged_;
}

} // namespace ltp
