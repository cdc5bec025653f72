/**
 * @file
 * Progress watchdog + resource guards.
 *
 * A monitor thread started around ParallelScheduler::runUntil() that
 * samples only atomic mirrors (EventQueue::tickApprox()/executedApprox(),
 * the WindowBarrier generation/arrival words, /proc/self/statm) — never the
 * engine's hot members — so it is data-race-free under TSan and costs
 * the simulation nothing. It detects:
 *
 *   - no-progress: simulated tick AND retired-event count both frozen
 *     past the wall budget (a livelock or wedge anywhere),
 *   - barrier stall: the WindowBarrier's generation frozen with
 *     arrivals pending past the stall budget (the signature of a shard
 *     that stopped arriving),
 *   - budget violations: retired events, wall-clock, or resident-set
 *     size past their caps (runaway runs).
 *
 * On the first violation it calls the abort hook exactly once — which
 * routes to ParallelScheduler::requestAbort(), stopping every shard
 * cleanly within one event — and records the structured reason for
 * RunResult::outcome. The run never hangs and never OOMs the host; a
 * sweep driver sees `aborted(<reason>)` for this run and moves on.
 */

#ifndef LTP_SIM_GUARD_WATCHDOG_HH
#define LTP_SIM_GUARD_WATCHDOG_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "sim/guard/guard_params.hh"
#include "sim/types.hh"

namespace ltp
{
namespace guard
{

/**
 * How the guards (the watchdog and the flight recorder) observe a
 * running engine. Every probe must be safe to call from another thread
 * while shards run (atomic reads only) — the crash path calls them from
 * a signal handler on whatever thread faulted.
 */
struct EngineProbes
{
    std::function<Tick()> tick;                 //!< tickApprox()
    std::function<std::uint64_t()> events;      //!< executedApprox()
    /** Barrier generation word; unset on barrier-less engines. */
    std::function<std::uint32_t()> barrierGeneration;
    /** Barrier pending-arrival count (paired with barrierGeneration). */
    std::function<unsigned()> barrierArrived;
};

/** How the watchdog observes and stops the engine. */
struct WatchdogHooks : EngineProbes
{
    /** Abort the run with a structured reason (requestAbort). */
    std::function<void(const std::string &)> abort;
};

/**
 * Current resident-set size in MiB (0 when unavailable). Reads
 * /proc/self/statm with plain syscalls and no allocation, so the crash
 * flight recorder may call it from a signal handler.
 */
std::uint64_t currentRssMb();

class Watchdog
{
  public:
    /** Start monitoring immediately. @p params decides which detectors
     *  arm; a params set with watchdogEnabled() == false starts no
     *  thread at all. */
    Watchdog(const GuardParams &params, WatchdogHooks hooks);

    /** Stop and join the monitor thread. */
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** True once a detector fired (the run was asked to abort). */
    bool fired() const { return fired_.load(std::memory_order_acquire); }

    /** The firing detector's structured reason (empty before firing). */
    std::string reason() const;

  private:
    void loop();
    void fire(const std::string &reason);

    GuardParams params_;
    WatchdogHooks hooks_;

    std::atomic<bool> fired_{false};
    mutable std::mutex mu_;
    std::string reason_;

    // Shutdown handshake: the destructor flips stop_ and signals cv_ so
    // the monitor wakes from its poll sleep immediately.
    bool stop_ = false;
    std::condition_variable cv_;
    std::thread thread_;
};

} // namespace guard
} // namespace ltp

#endif // LTP_SIM_GUARD_WATCHDOG_HH
