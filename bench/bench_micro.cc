/**
 * @file
 * Google-benchmark microbenchmarks for the hot structures: trace
 * signature updates, predictor touch/learn paths, the event queue, one
 * directory transaction, and end-to-end simulated-cycles-per-wall-second
 * for a small system.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "dsm/experiment.hh"
#include "mem/addr.hh"
#include "net/network.hh"
#include "predictor/ltp_per_block.hh"
#include "predictor/signature.hh"
#include "proto/cache_controller.hh"
#include "proto/dir_controller.hh"
#include "sim/event_queue.hh"
#include "sim/par/parallel_scheduler.hh"

namespace
{

using namespace ltp;

void
BM_SignatureExtend(benchmark::State &state)
{
    Signature sig = Signature::init(0x4000, unsigned(state.range(0)));
    Pc pc = 0x4004;
    for (auto _ : state) {
        sig = sig.extend(pc);
        benchmark::DoNotOptimize(sig);
    }
}
BENCHMARK(BM_SignatureExtend)->Arg(30)->Arg(13)->Arg(6);

void
predictorTouchLoop(benchmark::State &state, PredictorKind kind)
{
    LastTouchPredictor pred(kind);
    std::uint64_t i = 0;
    for (auto _ : state) {
        Addr blk = (i % 1024) * 32;
        bool fill = (i % 8) == 0;
        benchmark::DoNotOptimize(
            pred.onTouch(blk, 0x1000 + (i % 16) * 4, false, fill));
        if (i % 8 == 7)
            pred.onInvalidation(blk);
        ++i;
    }
}

void
BM_LtpPerBlockTouch(benchmark::State &state)
{
    predictorTouchLoop(state, PredictorKind::LtpPerBlock);
}
BENCHMARK(BM_LtpPerBlockTouch);

void
BM_LtpGlobalTouch(benchmark::State &state)
{
    predictorTouchLoop(state, PredictorKind::LtpGlobal);
}
BENCHMARK(BM_LtpGlobalTouch);

void
BM_LastPcTouch(benchmark::State &state)
{
    predictorTouchLoop(state, PredictorKind::LastPc);
}
BENCHMARK(BM_LastPcTouch);

/** The simulator's common delays: NI occupancy, flight, memory, service. */
constexpr Tick kEventDelays[8] = {1, 2, 6, 55, 80, 104, 106, 110};

/**
 * A self-rescheduling event: each run schedules its successor at a
 * pseudo-random delay from kEventDelays, as a local or (with @p Channel)
 * as a post on the chain's own channel.
 */
template <bool Channel>
struct Hop
{
    EventQueue *eq;
    std::uint64_t chan;
    std::uint64_t state;

    void
    operator()() const
    {
        std::uint64_t s = state * 6364136223846793005ull +
                          1442695040888963407ull;
        Tick when = eq->now() + kEventDelays[s >> 61];
        if constexpr (Channel)
            eq->scheduleAtChannel(when, chan, Hop{eq, chan, s});
        else
            eq->scheduleAt(when, Hop{eq, chan, s});
    }
};

/**
 * Steady-state schedule/execute cost: state.range(0) events stay
 * pending while each timed step() runs one and schedules its successor,
 * so the time per iteration is ns/event. The queue is built and warmed
 * up outside the timed loop.
 */
template <bool Channel>
void
eventQueueSteadyState(benchmark::State &state)
{
    EventQueue eq;
    const auto pending = std::uint64_t(state.range(0));
    for (std::uint64_t i = 0; i < pending; ++i)
        eq.scheduleAt(i % 7, Hop<Channel>{&eq, i, i + 1});
    for (std::uint64_t i = 0; i < 20 * pending; ++i)
        eq.step();
    for (auto _ : state)
        benchmark::DoNotOptimize(eq.step());
    benchmark::DoNotOptimize(eq.eventsExecuted());
    state.SetItemsProcessed(state.iterations());
}

void
BM_EventQueueSteadyState(benchmark::State &state)
{
    eventQueueSteadyState<false>(state);
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(50)->Arg(200)->Arg(5000);

void
BM_EventQueueSteadyStateChannel(benchmark::State &state)
{
    eventQueueSteadyState<true>(state);
}
BENCHMARK(BM_EventQueueSteadyStateChannel)->Arg(200);

/**
 * Host cost of one coherence transaction, run to quiescence on a
 * 1-shard scheduler: four nodes on the paper's p2p network, wired as in
 * tests/proto/protocol_test.cc. Iterations alternate on each of 64
 * blocks homed at node 1: node 0 reads it (a miss that recalls node 3's
 * exclusive copy), then node 3 writes it (a miss that invalidates node
 * 0's copy). So the time per iteration is ns per transaction: cache
 * controllers, NIs, the directory engine and the event queue. The
 * tables are warmed before timing, and nothing grows while it runs.
 */
void
BM_DirectoryTransaction(benchmark::State &state)
{
    constexpr NodeId nodes = 4;
    constexpr Addr blocks = 64;
    const NetworkParams np;
    ParallelScheduler sched(1, nodes, networkLookahead(np).ticks);
    StatGroup &stats = sched.shardStats(0);
    HomeMap homes(4096, nodes);
    Network net(sched, nodes, np);
    std::vector<std::unique_ptr<CacheController>> caches;
    std::vector<std::unique_ptr<DirController>> dirs;
    for (NodeId n = 0; n < nodes; ++n) {
        caches.push_back(std::make_unique<CacheController>(
            n, sched, net, homes, CacheParams{}, stats));
        dirs.push_back(std::make_unique<DirController>(n, sched, net,
                                                       DirParams{}, stats));
    }
    for (NodeId n = 0; n < nodes; ++n) {
        net.setSink(n, [&caches, &dirs, n](const Message &m) {
            if (routesToDirectory(m.type))
                dirs[n]->receive(m);
            else
                caches[n]->receive(m);
        });
    }

    std::uint64_t i = 0;
    Tick latency = 0;
    auto transaction = [&] {
        Addr blk = (1 + 4 * ((i / 2) % blocks)) * 4096; // homed at 1
        bool write = i++ % 2;
        caches[write ? 3 : 0]->access(blk, 0x1000, write,
                                      [&latency](Tick lat, bool) {
                                          latency = lat;
                                      });
        sched.runUntil(tickNever);
        benchmark::DoNotOptimize(latency);
    };
    for (Addr k = 0; k < 2 * blocks; ++k)
        transaction();
    for (auto _ : state)
        transaction();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryTransaction);

void
BM_EndToEndEm3d(benchmark::State &state)
{
    for (auto _ : state) {
        ExperimentSpec spec;
        spec.kernel = "em3d";
        spec.predictor = PredictorKind::LtpPerBlock;
        spec.mode = PredictorMode::Passive;
        spec.iterScale = 0.1;
        RunResult r = runExperiment(spec);
        benchmark::DoNotOptimize(r.cycles);
        state.counters["simCycles"] = double(r.cycles);
    }
}
BENCHMARK(BM_EndToEndEm3d)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
