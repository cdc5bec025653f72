/**
 * @file
 * Unit tests for the guard subsystem (src/sim/guard/): spec/env
 * parsing, the counter-based fault RNG, the invariant-checker
 * switchboard, the progress watchdog's detectors, WindowBarrier
 * teardown, SPSC-ring destruction with unconsumed entries, and the
 * crash flight recorder (clean and signal paths, the latter with a
 * live trace tail).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/categories.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/guard/checkers.hh"
#include "sim/guard/fault.hh"
#include "sim/guard/flight_recorder.hh"
#include "sim/guard/guard_params.hh"
#include "sim/guard/watchdog.hh"
#include "sim/par/spsc_ring.hh"
#include "sim/par/window_barrier.hh"

namespace ltp
{
namespace
{

// ---- GuardParams / environment ---------------------------------------

/** Scoped environment override (unset on destruction). */
struct ScopedEnv
{
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    const char *name_;
};

TEST(GuardParams, DefaultsAreAllOff)
{
    guard::GuardParams p;
    EXPECT_FALSE(p.anyEnabled());
    EXPECT_FALSE(p.watchdogEnabled());
    EXPECT_FALSE(p.checksEnabled());
    EXPECT_FALSE(p.faultsEnabled());
    EXPECT_FALSE(p.recorderEnabled());
}

TEST(GuardParams, FromEnvParsesEveryKnob)
{
    ScopedEnv check("LTP_CHECK", "message,link");
    ScopedEnv fault("LTP_FAULT", "cal-overflow:period=3");
    ScopedEnv wd("LTP_WATCHDOG_MS", "2000");
    ScopedEnv wall("LTP_MAX_WALL_MS", "60000");
    ScopedEnv events("LTP_MAX_EVENTS", "123456");
    ScopedEnv rss("LTP_MAX_RSS_MB", "4096");
    ScopedEnv fr("LTP_FLIGHT_RECORDER", "fr.json");

    guard::GuardParams p = guard::guardParamsFromEnv();
    EXPECT_EQ(p.checkMask, obs::catBit(obs::Cat::Message) |
                               obs::catBit(obs::Cat::Link));
    EXPECT_EQ(p.faultSpec, "cal-overflow:period=3");
    EXPECT_EQ(p.noProgressMs, 2000u);
    // Defaults to LTP_WATCHDOG_MS when unset.
    EXPECT_EQ(p.barrierStallMs, 2000u);
    EXPECT_EQ(p.maxWallMs, 60000u);
    EXPECT_EQ(p.maxEvents, 123456u);
    EXPECT_EQ(p.maxRssMb, 4096u);
    EXPECT_EQ(p.flightRecorderFile, "fr.json");
    EXPECT_TRUE(p.anyEnabled());
}

TEST(GuardParams, FromEnvRejectsBadValues)
{
    {
        ScopedEnv bad("LTP_CHECK", "message,typo");
        EXPECT_THROW(guard::guardParamsFromEnv(), std::invalid_argument);
    }
    {
        ScopedEnv bad("LTP_WATCHDOG_MS", "soon");
        EXPECT_THROW(guard::guardParamsFromEnv(), std::invalid_argument);
    }
    {
        ScopedEnv bad("LTP_FAULT", "meteor-strike");
        EXPECT_THROW(guard::guardParamsFromEnv(), std::invalid_argument);
    }
}

// ---- fault-spec parsing and the counter-based RNG --------------------

TEST(FaultSpec, ParsesKindsAndKeys)
{
    guard::FaultPlan p = guard::parseFaultSpec(
        "link-stall:p=0.5,extra=8,seed=7;barrier-wedge:round=3,shard=2");
    EXPECT_TRUE(p.on(guard::FaultKind::LinkStall));
    EXPECT_TRUE(p.on(guard::FaultKind::BarrierWedge));
    EXPECT_FALSE(p.on(guard::FaultKind::SpillStorm));
    EXPECT_DOUBLE_EQ(p.linkStallP, 0.5);
    EXPECT_EQ(p.linkStallExtra, 8u);
    EXPECT_EQ(p.linkStallSeed, 7u);
    EXPECT_EQ(p.wedgeRound, 3u);
    EXPECT_EQ(p.wedgeShard, 2u);

    guard::FaultPlan q = guard::parseFaultSpec("spill-storm");
    EXPECT_TRUE(q.on(guard::FaultKind::SpillStorm));
}

TEST(FaultSpec, RejectsUnknownTokens)
{
    EXPECT_THROW(guard::parseFaultSpec("nope"), std::invalid_argument);
    EXPECT_THROW(guard::parseFaultSpec("link-stall:zap=1"),
                 std::invalid_argument);
    EXPECT_THROW(guard::parseFaultSpec("link-stall:p=monkeys"),
                 std::invalid_argument);
    EXPECT_THROW(guard::parseFaultSpec("link-stall:p=1.5"),
                 std::invalid_argument);
}

TEST(FaultRng, LinkStallIsDeterministicPerSiteAndCounter)
{
    guard::FaultPlan f =
        guard::parseFaultSpec("link-stall:p=0.5,extra=16,seed=42");

    unsigned stalls = 0;
    for (std::uint64_t c = 0; c < 1000; ++c) {
        Tick t1 = f.linkStallTicks(3, c);
        Tick t2 = f.linkStallTicks(3, c);
        EXPECT_EQ(t1, t2) << "pure function of (seed, site, counter)";
        if (t1) {
            ++stalls;
            EXPECT_GE(t1, 1u);
            EXPECT_LE(t1, 16u);
        }
    }
    // p=0.5 over 1000 draws: a wildly loose band that still proves the
    // hash is neither constant-0 nor constant-1.
    EXPECT_GT(stalls, 300u);
    EXPECT_LT(stalls, 700u);

    // Different sites see different decision streams.
    unsigned differing = 0;
    for (std::uint64_t c = 0; c < 100; ++c)
        differing += f.linkStallTicks(3, c) != f.linkStallTicks(4, c);
    EXPECT_GT(differing, 0u);
}

TEST(FaultRng, CalendarOverflowPeriod)
{
    // The plan hands its period to the event queue, where every third
    // schedule detours through the overflow heap and migrates back into
    // its tick list before anything newer lands there.
    guard::FaultPlan f = guard::parseFaultSpec("cal-overflow:period=3");
    EventQueue eq(f.calendarOverflowPeriod());
    std::vector<int> order;
    for (int i = 0; i < 9; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(eq.overflowMigrations(), 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));

    EXPECT_EQ(guard::FaultPlan{}.calendarOverflowPeriod(), 0u)
        << "no detours unless the spec names cal-overflow";
}

// ---- invariant checkers ----------------------------------------------

TEST(Checks, MessageConservationCatchesLoss)
{
    guard::Checks c(obs::catBit(obs::Cat::Message), 4, /*pair_fifo=*/false);
    EXPECT_TRUE(c.on(obs::Cat::Message));

    c.countInject();
    c.countInject();
    c.countDeliver(0, 1, 0, 100);
    EXPECT_THROW(c.checkMessageConservation(), guard::CheckFailure);

    c.countDeliver(0, 2, 0, 200);
    EXPECT_NO_THROW(c.checkMessageConservation());
}

TEST(Checks, PairwiseFifoCatchesOvertaking)
{
    guard::Checks c(obs::catBit(obs::Cat::Message), 4, /*pair_fifo=*/true);

    c.countDeliver(0, 1, 0, 10);
    c.countDeliver(0, 1, 1, 20);
    c.countDeliver(2, 1, 0, 20); // independent pair: own sequence
    // seq 3 overtook seq 2 on pair (0, 1).
    try {
        c.countDeliver(0, 1, 3, 30);
        FAIL() << "expected CheckFailure";
    } catch (const guard::CheckFailure &e) {
        EXPECT_NE(std::string(e.what()).find("LTP_CHECK"),
                  std::string::npos);
    }
}

TEST(Checks, LocalBypassSkipsFifoCheck)
{
    guard::Checks c(obs::catBit(obs::Cat::Message), 4, /*pair_fifo=*/true);
    // src == dst never routes, so netSeq stays 0 on every message.
    EXPECT_NO_THROW(c.countDeliver(2, 2, 0, 10));
    EXPECT_NO_THROW(c.countDeliver(2, 2, 0, 20));
}

// ---- watchdog --------------------------------------------------------

struct WatchdogProbe
{
    std::atomic<Tick> tick{0};
    std::atomic<std::uint64_t> events{0};
    std::atomic<int> aborts{0};
    std::string reason;
    std::mutex mu;

    guard::WatchdogHooks
    hooks()
    {
        guard::WatchdogHooks h;
        h.tick = [this] { return tick.load(); };
        h.events = [this] { return events.load(); };
        h.abort = [this](const std::string &r) {
            std::lock_guard<std::mutex> g(mu);
            aborts.fetch_add(1);
            reason = r;
        };
        return h;
    }
};

TEST(Watchdog, FiresOnNoProgressWithinBudget)
{
    WatchdogProbe probe;
    guard::GuardParams p;
    p.noProgressMs = 50;

    auto t0 = std::chrono::steady_clock::now();
    guard::Watchdog dog(p, probe.hooks());
    while (!dog.fired() &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5))
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    EXPECT_TRUE(dog.fired());
    EXPECT_EQ(probe.aborts.load(), 1) << "abort hook fires exactly once";
    EXPECT_NE(dog.reason().find("no-progress"), std::string::npos)
        << dog.reason();
}

TEST(Watchdog, ProgressSuppressesTheDetector)
{
    WatchdogProbe probe;
    guard::GuardParams p;
    p.noProgressMs = 120;

    guard::Watchdog dog(p, probe.hooks());
    // Keep the tick moving for ~3 budgets: the detector must stay quiet.
    for (int i = 0; i < 36; ++i) {
        probe.tick.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_FALSE(dog.fired()) << dog.reason();
}

TEST(Watchdog, FiresOnEventBudget)
{
    WatchdogProbe probe;
    probe.events = 1'000'000;
    probe.tick = 1; // moving tick: only the budget can fire
    guard::GuardParams p;
    p.maxEvents = 500'000;

    auto t0 = std::chrono::steady_clock::now();
    guard::Watchdog dog(p, probe.hooks());
    while (!dog.fired() &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5))
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(dog.fired());
    EXPECT_NE(dog.reason().find("event budget"), std::string::npos)
        << dog.reason();
}

TEST(Watchdog, DisabledParamsStartNoThread)
{
    WatchdogProbe probe;
    guard::GuardParams p; // all budgets 0
    guard::Watchdog dog(p, probe.hooks());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(dog.fired());
    EXPECT_EQ(probe.aborts.load(), 0);
}

// ---- WindowBarrier teardown ------------------------------------------

TEST(WindowBarrierAbort, ReleasesAParkedWaiter)
{
    WindowBarrier barrier(2);
    std::atomic<bool> returned{false};

    // With only one arrival the waiter spins, then futex-parks: the
    // exact wedge signature the watchdog detects.
    std::thread waiter([&] {
        barrier.arriveAndWait();
        returned.store(true);
    });

    // Give it time to reach the parked state.
    while (barrier.arrivedCount() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load());

    barrier.abort();
    waiter.join();
    EXPECT_TRUE(returned.load());
    EXPECT_TRUE(barrier.aborted());

    // Post-abort arrivals fall straight through, forever.
    bool completion_ran = false;
    barrier.arriveAndWait([&] { completion_ran = true; });
    EXPECT_FALSE(completion_ran);
}

// ---- SpscRing teardown and raw inspection ----------------------------

TEST(SpscRingGuard, DestructionReleasesUnconsumedEntries)
{
    auto payload = std::make_shared<int>(7);
    {
        SpscRing<std::shared_ptr<int>, 8> ring;
        for (int i = 0; i < 5; ++i)
            EXPECT_TRUE(ring.tryPush(std::shared_ptr<int>(payload)));
        std::shared_ptr<int> out;
        EXPECT_TRUE(ring.tryPop(out));
        EXPECT_EQ(*out, 7);
        // 4 entries (plus `out`) still alive when the ring dies.
        EXPECT_EQ(payload.use_count(), 1 + 4 + 1);
    }
    EXPECT_EQ(payload.use_count(), 1)
        << "ring destruction must release unconsumed entries";
}

TEST(SpscRingGuard, RawSlotsExposeUnconsumedRecords)
{
    SpscRing<int, 8> ring;
    EXPECT_EQ(ring.rawTail(), 0u);
    EXPECT_EQ(ring.rawSlot(0), nullptr) << "no storage before first push";
    for (int i = 0; i < 6; ++i)
        EXPECT_TRUE(ring.tryPush(int(i)));
    ASSERT_EQ(ring.rawTail(), 6u);
    for (std::size_t seq = 0; seq < 6; ++seq) {
        const int *slot = ring.rawSlot(seq);
        ASSERT_NE(slot, nullptr);
        EXPECT_EQ(*slot, int(seq));
    }
}

// ---- flight recorder -------------------------------------------------

std::string
tempPath(const char *name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir ? dir : "/tmp") + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

TEST(FlightRecorder, CleanPathDumpCarriesContext)
{
    std::string path = tempPath("ltp_guard_test_fr_clean.json");
    std::remove(path.c_str());

    guard::RecorderContext ctx;
    ctx.tick = [] { return Tick(1234); };
    ctx.events = [] { return std::uint64_t(5678); };
    ctx.shards = 3;
    guard::FlightRecorder fr(path, std::move(ctx));
    EXPECT_TRUE(fr.dumpNow("test reason with \"quotes\""));

    std::string dump = slurp(path);
    EXPECT_NE(dump.find("\"reason\": \"test reason with \\\"quotes\\\"\""),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("\"tick\": 1234"), std::string::npos);
    EXPECT_NE(dump.find("\"events\": 5678"), std::string::npos);
    EXPECT_NE(dump.find("\"shards\": 3"), std::string::npos);
    EXPECT_NE(dump.find("\"signal\": null"), std::string::npos);
    std::remove(path.c_str());
}

using FlightRecorderDeathTest = ::testing::Test;

TEST(FlightRecorderDeathTest, CrashPathWritesADumpOnAbort)
{
    std::string path = tempPath("ltp_guard_test_fr_crash.json");
    std::remove(path.c_str());

    // The death-test child starts a recorder and dies on SIGABRT; its
    // crash handler must leave the dump behind before re-raising.
    EXPECT_DEATH(
        {
            guard::RecorderContext ctx;
            ctx.tick = [] { return Tick(99); };
            ctx.events = [] { return std::uint64_t(42); };
            guard::FlightRecorder fr(path, std::move(ctx));
            std::abort();
        },
        "");

    std::string dump = slurp(path);
    EXPECT_NE(dump.find("\"name\": \"SIGABRT\""), std::string::npos)
        << dump;
    EXPECT_NE(dump.find("\"tick\": 99"), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"traceTail\": ["), std::string::npos) << dump;
    std::remove(path.c_str());
}

TEST(FlightRecorderDeathTest, CrashPathDumpCarriesTheTraceTail)
{
    std::string path = tempPath("ltp_guard_test_fr_crash_tail.json");
    std::remove(path.c_str());

    // The child dies while its run's tracer still buffers 300 records
    // over two shards; the signal-path dump must carry the newest 256
    // of them, oldest first, without allocating.
    EXPECT_DEATH(
        {
            obs::TraceConfig tc;
            tc.path = tempPath("ltp_guard_test_fr_never_flushed.json");
            obs::Tracer tracer(tc, {0, 1});
            for (Tick t = 1; t <= 300; ++t) {
                tracer.instant(obs::Cat::Predictor, std::uint32_t(t % 2),
                               "crash-tail", t);
            }
            guard::RecorderContext ctx;
            ctx.shards = 2;
            ctx.tracer = &tracer;
            guard::FlightRecorder fr(path, std::move(ctx));
            std::abort();
        },
        "");

    std::string dump = slurp(path);
    EXPECT_NE(dump.find("\"name\": \"crash-tail\""), std::string::npos)
        << dump;
    std::size_t first = dump.find("{\"ts\": 45,");
    std::size_t last = dump.find("{\"ts\": 300,");
    EXPECT_NE(first, std::string::npos) << dump;
    EXPECT_NE(last, std::string::npos) << dump;
    EXPECT_LT(first, last) << "oldest first";
    EXPECT_EQ(dump.find("{\"ts\": 44,"), std::string::npos)
        << "only the newest 256 records";
    std::remove(path.c_str());
}

} // namespace
} // namespace ltp
