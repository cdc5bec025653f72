/**
 * @file
 * Crash flight recorder (LTP_FLIGHT_RECORDER).
 *
 * Records what the engine was doing when a run died — the last-N obs
 * trace-ring records, the engine self-profile, and the window/shard
 * state — as one JSON file, on two paths:
 *
 *  - Clean abort: DsmSystem calls dumpNow() after the watchdog (or a
 *    checker) aborted the run and the engine joined its workers. The
 *    buffers are quiescent, so this dump is complete and race-free.
 *
 *  - Crash: the first recorder installs SIGSEGV/SIGBUS/SIGFPE/SIGABRT
 *    handlers (the last also catching assert()), so even a wild pointer
 *    or a failed assertion leaves a dump behind. This path is
 *    best-effort by contract: it runs on a dying process, reads the
 *    trace rings non-destructively while writers may still be
 *    mid-record, and then re-raises the signal so the default
 *    disposition (core dump, nonzero exit) still happens. It allocates
 *    nothing, so a crash inside malloc still leaves a dump.
 *
 * A recorder is an RAII object scoped to one DsmSystem::run(). Signal
 * handlers have no argument channel, so every live recorder sits in a
 * small fixed table that the handler walks without locks: a crash
 * dumps every run in flight, each to its own path.
 */

#ifndef LTP_SIM_GUARD_FLIGHT_RECORDER_HH
#define LTP_SIM_GUARD_FLIGHT_RECORDER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "obs/engine_profile.hh"
#include "sim/guard/watchdog.hh"
#include "sim/types.hh"

namespace ltp
{
namespace obs
{
class Tracer;
} // namespace obs

namespace guard
{

/** How the recorder observes the run, beyond the engine probes. */
struct RecorderContext : EngineProbes
{
    /** Engine self-profile; clean path only (locks internally). */
    std::function<obs::EngineProfile()> profile;
    unsigned shards = 1;
    /** The run's tracer, for the trace tail; null = no tail. */
    const obs::Tracer *tracer = nullptr;
};

class FlightRecorder
{
  public:
    /**
     * Record one run to @p path ("%p" expands to the pid) until
     * destroyed, observing it through @p ctx. The first recorder
     * installs the crash signal handlers; they stay installed.
     */
    FlightRecorder(const std::string &path, RecorderContext ctx);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Clean-path dump: write the flight-record JSON with @p reason.
     * Call after the engine joined its workers (buffers quiescent).
     * @return false when the file cannot be written.
     */
    bool dumpNow(const std::string &reason);

  private:
    /** The dump itself; @p sig is 0 on the clean path. */
    bool write(const char *reason, int sig);

    static void crashHandler(int sig);
    static void installHandlers();

    char path_[512] = {0};
    RecorderContext ctx_;
};

} // namespace guard
} // namespace ltp

#endif // LTP_SIM_GUARD_FLIGHT_RECORDER_HH
