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
 *  - The disabled fast path is one load + test of a cached bitmask
 *    (Tracer::on()); call sites compile to a predictable untaken branch.
 *    Defining LTP_OBS_DISABLE_TRACE removes even that: every emit
 *    helper becomes an empty inline function.
 *
 *  - The enabled path is wait-free per record: each simulation worker
 *    thread owns one buffer (the parallel engine binds its shard index
 *    through bindThread()), built from the mailbox-lane idiom of
 *    src/sim/par/spsc_ring.hh — a fixed SPSC ring absorbs the common
 *    case, a spill vector absorbs bursts, and once a buffer spills it
 *    keeps spilling so ring-then-spill drain order stays FIFO. A hard
 *    per-shard record cap bounds memory; records beyond it are counted
 *    (`dropped` in the JSON metadata), never silently lost.
 *
 * Track model: pid = simulated node (process track), tid = executing
 * shard (thread track), exactly as the parallel engine partitions work.
 * Engine-internal events (windows, barrier waits, mailbox spills) have
 * no node; they ride synthetic "engine shard S" processes at
 * pid = enginePidBase + shard. Timestamps are simulated ticks written
 * as trace microseconds: 1 us in the viewer == 1 simulated cycle.
 *
 * The tracer is a process-wide singleton:
 * components emit without threading a pointer through every
 * constructor, and exactly one traced run is active at a time (a second
 * start() flushes and restarts).
 */

#ifndef LTP_OBS_TRACE_HH
#define LTP_OBS_TRACE_HH

#include <atomic>
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
    /** Hard cap on records per shard buffer (ring + spill). */
    std::size_t eventCapPerShard = std::size_t(1) << 20;
};

class Tracer
{
  public:
    /** The process-wide tracer. */
    static Tracer &instance();

    /** True when category @p c is being traced (the hot-path guard). */
    static bool
    on(Cat c)
    {
#ifdef LTP_OBS_DISABLE_TRACE
        (void)c;
        return false;
#else
        return (activeMask_.load(std::memory_order_relaxed) &
                catBit(c)) != 0;
#endif
    }

    /**
     * Begin a traced run: allocate @p shards record buffers, remember
     * the node -> shard map (@p node_shard) for track metadata, and
     * enable the configured categories. Flushes any still-active trace
     * first. No-op when @p config.path is empty.
     */
    void start(const TraceConfig &config,
               const std::vector<unsigned> &node_shard);

    /** End the run: drain every buffer to the JSON file, disable. */
    void stop();

    /**
     * Bind the calling thread to shard @p shard's buffer. The parallel
     * engine calls this as each worker starts; single-threaded runs
     * write through the default binding (shard 0).
     */
    static void bindThread(unsigned shard);

    /** A span [@p start, @p end] on node @p node's track. */
    static void
    span(Cat c, std::uint32_t node, const char *name, Tick start, Tick end,
         std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
#ifndef LTP_OBS_DISABLE_TRACE
        if (on(c))
            instance().record(c, /*span=*/true, node, name, start,
                              end - start, a0, a1);
#else
        (void)c; (void)node; (void)name; (void)start; (void)end;
        (void)a0; (void)a1;
#endif
    }

    /** An instant at @p ts on node @p node's track. */
    static void
    instant(Cat c, std::uint32_t node, const char *name, Tick ts,
            std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
#ifndef LTP_OBS_DISABLE_TRACE
        if (on(c))
            instance().record(c, /*span=*/false, node, name, ts, 0, a0, a1);
#else
        (void)c; (void)node; (void)name; (void)ts; (void)a0; (void)a1;
#endif
    }

    /** Shard the calling thread is bound to (bindThread; default 0). */
    static unsigned boundShard();

    /**
     * Engine-track span/instant: Cat::Engine on the calling thread's
     * own shard track (the shard id rides the node field — see
     * enginePidBase).
     */
    static void
    engineSpan(const char *name, Tick start, Tick end,
               std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
#ifndef LTP_OBS_DISABLE_TRACE
        if (on(Cat::Engine))
            span(Cat::Engine, boundShard(), name, start, end, a0, a1);
#else
        (void)name; (void)start; (void)end; (void)a0; (void)a1;
#endif
    }

    static void
    engineInstant(const char *name, Tick ts, std::uint64_t a0 = 0,
                  std::uint64_t a1 = 0)
    {
#ifndef LTP_OBS_DISABLE_TRACE
        if (on(Cat::Engine))
            instant(Cat::Engine, boundShard(), name, ts, a0, a1);
#else
        (void)name; (void)ts; (void)a0; (void)a1;
#endif
    }

    /** Records dropped over the per-shard cap in the last/current run. */
    std::uint64_t droppedRecords() const;

    /** Records currently buffered (tests). */
    std::uint64_t bufferedRecords() const;

    bool active() const { return !buffers_.empty(); }

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
     * The newest (by timestamp) @p max_records buffered records without
     * consuming them, oldest first — the crash flight recorder's view
     * of "what just happened". Race-free after the run's workers have
     * joined (the clean abort path); from a crash signal handler it is
     * best-effort by contract: the rings are read non-destructively via
     * their raw slots and a record being written concurrently may come
     * back torn.
     */
    std::vector<Rec> tailRecords(std::size_t max_records) const;

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

    Tracer() = default;

    void record(Cat c, bool span, std::uint32_t node, const char *name,
                Tick ts, Tick dur, std::uint64_t a0, std::uint64_t a1);

    /**
     * The guard every emit helper reads; nonzero only while a traced
     * run is active. Atomic because persistent engine workers may
     * exist across start()/stop(); relaxed is enough — buffer
     * visibility is ordered by the engine's own run barriers.
     */
    static std::atomic<std::uint32_t> activeMask_;

    TraceConfig config_;
    std::vector<unsigned> nodeShard_;
    std::vector<std::unique_ptr<ShardBuf>> buffers_;
    std::uint64_t lastDropped_ = 0;
};

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_TRACE_HH
