/**
 * @file
 * The cache-side coherence controller of one DSM node.
 *
 * Services the processor's loads and stores against the node's cache,
 * issues GetS/GetX to home directories on misses, answers invalidations
 * and writeback requests, and hosts the self-invalidation predictor:
 * every completed touch is reported to the predictor, and a last-touch
 * prediction (or a DSI candidate flush) turns into a SelfInv message.
 * Data arrives only as the reply (DataS/DataX) to the node's own
 * outstanding request.
 *
 * Predictor modes:
 *  - Off:     base system, no predictor activity at all.
 *  - Active:  predictions really self-invalidate blocks; accuracy is
 *             scored through the directory's verification mask (Fig 9 /
 *             Table 4 methodology).
 *  - Passive: predictions are recorded but do not perturb the run; the
 *             controller scores them against what actually happens next
 *             (Fig 6-8 / Table 3 methodology).
 */

#ifndef LTP_PROTO_CACHE_CONTROLLER_HH
#define LTP_PROTO_CACHE_CONTROLLER_HH

#include <functional>

#include "mem/addr.hh"
#include "mem/cache.hh"
#include "net/message.hh"
#include "net/topo/interconnect.hh"
#include "predictor/invalidation_predictor.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ltp
{

/** Cache-side timing knobs. */
struct CacheParams
{
    Tick hitLatency = 1;      //!< processor-visible hit time
    Tick ctrlOverhead = 2;    //!< controller processing per action
    /** Extra latency on the outbound path of a *remote* miss (the local
     *  network-cache lookup that misses before the request goes out). */
    Tick remoteLookup = 104;
    unsigned blockSize = 32;
};

/** How the attached predictor participates in the run. */
enum class PredictorMode
{
    Off,
    Active,
    Passive,
};

/**
 * Per-node cache controller. The processor is single-issue and blocking:
 * at most one demand access is outstanding at a time.
 */
class CacheController : public SelfInvalidationPort
{
  public:
    /** Completion callback: (latency, was_miss). */
    using AccessDone = std::function<void(Tick, bool)>;

    /** Runs on @p sched's queue for @p node. */
    CacheController(NodeId node, ParallelScheduler &sched,
                    Interconnect &net, const HomeMap &homes,
                    CacheParams params, StatGroup &stats);

    /** Attach a predictor (not owned). */
    void setPredictor(InvalidationPredictor *pred, PredictorMode mode);

    /**
     * Issue a demand access for the processor.
     * @pre no other demand access is outstanding.
     */
    void access(Addr addr, Pc pc, bool is_write, AccessDone done);

    /**
     * Deliver an inbound protocol message (network sink).
     * @throws std::logic_error for a type a cache does not handle.
     */
    void receive(const Message &msg);

    /** The processor crossed a synchronization boundary (DSI trigger). */
    void syncBoundary();

    /** SelfInvalidationPort: predictor-initiated flush of @p blk. */
    void requestSelfInvalidate(Addr blk) override;

    /**
     * Verification outcome delivered by a directory for an earlier,
     * CORRECT self-invalidation by this node (premature outcomes travel
     * on the data reply instead).
     */
    void onDirVerify(Addr blk, bool premature, bool timely);

    Cache &cache() { return cache_; }
    NodeId nodeId() const { return node_; }
    PredictorMode mode() const { return mode_; }

    /** True while a demand access is in flight (diagnostics). */
    bool hasOutstanding() const { return out_.valid; }
    /** Block of the in-flight demand access (diagnostics). */
    Addr outstandingBlock() const { return out_.blk; }

  private:
    struct Outstanding
    {
        Addr blk = 0;
        Pc pc = 0;
        bool write = false;
        bool hadSharedCopy = false; //!< upgrade: fill does not restart trace
        Tick issued = 0;
        AccessDone done;
        bool valid = false;
    };

    void handleData(const Message &msg);
    void handleInvOrWbReq(const Message &msg);

    /** Report a completed touch to the predictor and act on the answer. */
    void afterTouch(Addr blk, Pc pc, bool is_write, bool fill);

    /** An external invalidation removes resident @p line (block @p blk):
     *  score + learn. */
    void externalInvalidation(Addr blk, CacheLine &line);

    /** Really flush resident @p line (block @p blk) home (Active mode). */
    void selfInvalidate(Addr blk, CacheLine &line);

    void send(Message msg, Tick delay);

    NodeId node_;
    ParallelScheduler &sched_;
    EventQueue &eq_;
    Interconnect &net_;
    const HomeMap &homes_;
    CacheParams params_;
    Cache cache_;

    InvalidationPredictor *pred_ = nullptr;
    PredictorMode mode_ = PredictorMode::Off;

    Outstanding out_;

    /** Passive mode: blocks with an unresolved last-touch prediction. */
    FlatSet<Addr> pendingPred_;

    Counter &hits_;
    Counter &misses_;
    Counter &upgrades_;
    Counter &invalidationsSeen_;
    Counter &predPredicted_;
    Counter &predNotPredicted_;
    Counter &predMispredicted_;
    Counter &selfInvsIssued_;
    Average &missLatency_;
};

} // namespace ltp

#endif // LTP_PROTO_CACHE_CONTROLLER_HH
