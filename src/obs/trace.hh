/**
 * @file
 * Zero-perturbation event tracer: Chrome-trace/Perfetto JSON output.
 *
 * The tracer records compact fixed-size event records into per-shard
 * buffers while the simulation runs and serializes them to one
 * Chrome-trace JSON file (loadable at https://ui.perfetto.dev) when the
 * run ends. It is strictly observer-only:
 *
 *  - Nothing here touches the EventQueue, a StatGroup, or any simulated
 *    state, so every golden output and statistics dump is byte-identical
 *    with tracing on or off, at every shard count.
 *
 *  - The disabled fast path is one load + test of the tracer's own
 *    category mask (Tracer::on()); call sites compile to a predictable
 *    untaken branch.
 *
 *  - The enabled path is wait-free per record: each shard owns one
 *    buffer, built from the mailbox-lane idiom of
 *    src/sim/par/spsc_ring.hh — a fixed SPSC ring absorbs the common
 *    case, a spill vector absorbs bursts, and once a buffer spills it
 *    keeps spilling so ring-then-spill drain order stays FIFO. A hard
 *    per-shard record cap bounds memory; records beyond it are counted
 *    (`dropped` in the JSON metadata), never silently lost.
 *
 * Track model: pid = simulated node (process track), tid = executing
 * shard (thread track), exactly as the parallel engine partitions work.
 * A node's records are emitted by events on that node's shard, so each
 * record goes to its node's shard buffer (single writer) by the node ->
 * shard map. Engine-internal events (windows, barrier waits, mailbox
 * spills) have no node; they pass their shard explicitly and ride
 * synthetic "engine shard S" processes at pid = enginePidBase + shard.
 * Timestamps are simulated ticks written as trace microseconds: 1 us in
 * the viewer == 1 simulated cycle.
 *
 * One Tracer traces one run. The engine (ParallelScheduler) owns it,
 * built from the run's TraceConfig, and every component emits through
 * the scheduler it is built on; DsmSystem::run() flushes it once when
 * the run ends. Runs in one process never share a tracer.
 */

#ifndef LTP_OBS_TRACE_HH
#define LTP_OBS_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/categories.hh"
#include "sim/par/spsc_ring.hh"
#include "sim/types.hh"

namespace ltp
{
namespace obs
{

/**
 * Synthetic pid base for engine (per-shard, node-less) tracks. Emitters
 * of Cat::Engine records pass the shard id where other categories pass
 * the node id; serialization maps it to pid = enginePidBase + shard.
 */
constexpr std::uint32_t enginePidBase = 1'000'000;

/** Tracer configuration (threaded through SystemParams::obs). */
struct TraceConfig
{
    /** Output path; "%p" expands to the process id. Empty = disabled. */
    std::string path;
    /** Category mask (see obs/categories.hh); default: everything. */
    std::uint32_t categories = allCatsMask;
};

class Tracer
{
  public:
    /**
     * Hard cap on records per shard buffer (ring + spill), about 48 MB;
     * records past it are dropped and counted.
     */
    static constexpr std::size_t eventCapPerShard = std::size_t(1) << 20;

    /**
     * Trace a run whose node -> shard map is @p node_shard: one record
     * buffer per shard, the configured categories enabled. An empty
     * @p config.path leaves the tracer disabled: every hook is then one
     * load and an untaken branch.
     */
    Tracer(const TraceConfig &config, std::vector<unsigned> node_shard);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** True when category @p c is being traced (the hot-path guard). */
    bool on(Cat c) const { return (mask_ & catBit(c)) != 0; }

    /** A span [@p start, @p end] on node @p node's track. */
    void
    span(Cat c, std::uint32_t node, const char *name, Tick start, Tick end,
         std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        if (on(c))
            record(c, /*span=*/true, node, name, start, end - start, a0, a1);
    }

    /** An instant at @p ts on node @p node's track. */
    void
    instant(Cat c, std::uint32_t node, const char *name, Tick ts,
            std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        if (on(c))
            record(c, /*span=*/false, node, name, ts, 0, a0, a1);
    }

    /**
     * Engine-track span/instant: Cat::Engine on shard @p shard's own
     * track (the shard id rides the node field — see enginePidBase).
     */
    void
    engineSpan(unsigned shard, const char *name, Tick start, Tick end,
               std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        span(Cat::Engine, shard, name, start, end, a0, a1);
    }

    void
    engineInstant(unsigned shard, const char *name, Tick ts,
                  std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        instant(Cat::Engine, shard, name, ts, a0, a1);
    }

    /**
     * End the trace: drain every buffer to the JSON file and disable.
     * Call once the run's workers have joined. Later calls, and calls
     * on a disabled tracer, do nothing.
     */
    void flush();

    /**
     * One buffered trace record. `name` must point at storage that
     * outlives the run (string literals / msgTypeName()'s statics).
     */
    struct Rec
    {
        Tick ts = 0;
        Tick dur = 0;
        std::uint64_t a0 = 0;
        std::uint64_t a1 = 0;
        const char *name = nullptr;
        std::uint32_t node = 0;
        std::uint16_t shard = 0;
        std::uint8_t cat = 0;
        bool span = false;
    };

    /**
     * Copy the newest (by timestamp) buffered records, at most @p max,
     * into @p out without consuming them, oldest first, and return how
     * many — the crash flight recorder's view of "what just happened".
     * Allocation-free, so a crash signal handler may call it. Race-free
     * after the run's workers have joined (the clean abort path); from
     * a signal handler it is best-effort by contract: the rings are
     * read non-destructively via their raw slots and a record being
     * written concurrently may come back torn.
     */
    std::size_t tail(Rec *out, std::size_t max) const;

  private:
    static constexpr std::size_t ringCapacity = 4096;

    /**
     * One shard's record buffer — the ParallelScheduler::Lane idiom:
     * ring first, spill after the first overflow (so drain order stays
     * FIFO), hard cap with a drop counter after that.
     */
    struct ShardBuf
    {
        SpscRing<Rec, ringCapacity> ring;
        std::vector<Rec> spill;
        std::uint64_t dropped = 0;
        std::size_t count = 0;
    };

    void record(Cat c, bool span, std::uint32_t node, const char *name,
                Tick ts, Tick dur, std::uint64_t a0, std::uint64_t a1);

    /**
     * The guard every emit helper reads; nonzero only while the trace
     * is live. Set before the run's workers start and cleared by
     * flush() after they joined, so a plain member suffices.
     */
    std::uint32_t mask_ = 0;
    TraceConfig config_;
    std::vector<unsigned> nodeShard_;
    std::vector<std::unique_ptr<ShardBuf>> buffers_;
};

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_TRACE_HH
