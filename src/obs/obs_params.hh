/**
 * @file
 * Observability configuration, threaded SystemParams -> ExperimentSpec
 * -> CLI. All fields default to "off": a default-constructed ObsParams
 * is the zero-cost configuration.
 *
 * Environment variables (read by obsParamsFromEnv(), applied by
 * runExperiment() and the debug CLI):
 *
 *   LTP_TRACE=trace.json          write a Chrome/Perfetto trace; "%p"
 *                                 expands to the pid (parallel ctest)
 *   LTP_TRACE_CATS=link,engine    restrict traced categories
 *                                 (default all; see obs/categories.hh)
 *   LTP_METRICS=metrics.jsonl     stream StatGroup delta samples
 *   LTP_METRICS_INTERVAL=5000     sampling period in ticks
 */

#ifndef LTP_OBS_OBS_PARAMS_HH
#define LTP_OBS_OBS_PARAMS_HH

#include <cstdint>
#include <string>

#include "obs/categories.hh"
#include "sim/types.hh"

namespace ltp
{
namespace obs
{

struct ObsParams
{
    /** Chrome-trace output path; empty = tracing off. */
    std::string traceFile;
    /** Mask of traced categories (obs/categories.hh). */
    std::uint32_t tracerCategories = allCatsMask;

    /** JSONL metrics output path; empty = sampling off. */
    std::string metricsFile;
    /** Ticks between metric samples. */
    Tick metricsIntervalTicks = 10'000;

    bool traceEnabled() const { return !traceFile.empty(); }
    bool metricsEnabled() const { return !metricsFile.empty(); }
    bool anyEnabled() const { return traceEnabled() || metricsEnabled(); }
};

/**
 * ObsParams from LTP_TRACE / LTP_TRACE_CATS / LTP_METRICS /
 * LTP_METRICS_INTERVAL; defaults where unset. Throws
 * std::invalid_argument on an unparseable category list or interval.
 */
ObsParams obsParamsFromEnv();

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_OBS_PARAMS_HH
