/**
 * @file
 * Engine self-profiling counters.
 *
 * These measure how the *host* executed a run — barrier waits in
 * nanoseconds, mailbox-ring spills, calendar-overflow migrations — so
 * they are machine- and thread-count-dependent by nature. They are
 * deliberately NOT StatGroup statistics: the stats dump must stay
 * byte-identical across simThreads values (the determinism matrix and
 * every golden depend on it), so wall-clock-shaped numbers live in this
 * plain struct, surfaced through RunResult::engineProfile, bench_perf's
 * JSON rows (extra keys, ignored by perf_gate's cells), and the debug
 * CLI's LTP_ENGINE_PROFILE=1 stderr dump.
 */

#ifndef LTP_OBS_ENGINE_PROFILE_HH
#define LTP_OBS_ENGINE_PROFILE_HH

#include <cstdint>

namespace ltp
{
namespace obs
{

/** Host-side execution profile of one run, summed over shards. */
struct EngineProfile
{
    /** Conservative windows planned by the staged engine (0 at one
     *  shard, which runs without windows). */
    std::uint64_t rounds = 0;
    /** Sum of staged window widths in ticks (avg = windowTicks/rounds). */
    std::uint64_t windowTicks = 0;
    /** Barrier arrivals that exhausted the spin budget and futex-parked. */
    std::uint64_t barrierParks = 0;
    /** Wall nanoseconds spent inside barrier waits (spin + park). */
    std::uint64_t barrierWaitNs = 0;
    /** Cross-shard posts that overflowed an SPSC ring into its spill. */
    std::uint64_t spilledPosts = 0;
    /** EventQueue far-future events migrated out of the calendar. */
    std::uint64_t overflowMigrations = 0;

    EngineProfile &
    operator+=(const EngineProfile &o)
    {
        rounds += o.rounds;
        windowTicks += o.windowTicks;
        barrierParks += o.barrierParks;
        barrierWaitNs += o.barrierWaitNs;
        spilledPosts += o.spilledPosts;
        overflowMigrations += o.overflowMigrations;
        return *this;
    }
};

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_ENGINE_PROFILE_HH
