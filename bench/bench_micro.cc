/**
 * @file
 * Google-benchmark microbenchmarks for the hot structures: trace
 * signature updates, predictor touch/learn paths, the event queue, and
 * end-to-end simulated-cycles-per-wall-second for a small system.
 */

#include <benchmark/benchmark.h>

#include "dsm/experiment.hh"
#include "predictor/ltp_per_block.hh"
#include "predictor/signature.hh"
#include "sim/event_queue.hh"

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
