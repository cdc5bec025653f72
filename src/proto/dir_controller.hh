/**
 * @file
 * The home-node directory controller.
 *
 * Implements the full-map write-invalidate protocol of Section 2 (the
 * migratory-favoring variant that invalidates a writer's copy on a read),
 * the self-invalidation handling and verification mask of Section 4, and
 * DSI's write-versioning.
 *
 * Timing follows the paper's methodology: an aggressive two-stage
 * pipelined protocol engine. Messages queue FIFO at the controller; the
 * engine starts a new message every (service latency / 2) cycles and a
 * message's protocol actions complete after its full service latency.
 * Queueing delay and service time per message are the observables of
 * Table 4.
 */

#ifndef LTP_PROTO_DIR_CONTROLLER_HH
#define LTP_PROTO_DIR_CONTROLLER_HH

#include <deque>
#include <functional>

#include "net/message.hh"
#include "net/topo/interconnect.hh"
#include "proto/directory.hh"
#include "proto/sharing_predictor.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ltp
{

/** Directory-engine timing knobs. */
struct DirParams
{
    /** Fixed protocol-processing latency per message (cycles). */
    Tick engineOverhead = 6;
    /** Local memory / network-cache access time (Table 1: 104 cycles). */
    Tick memAccess = 104;
    /** Two-stage pipelining: engine accepts a new message every
     *  latency/2 cycles. When false the engine is a simple server. */
    bool pipelined = true;
    /**
     * Extension (Section 2's "in the limit" remark): learn requester
     * succession per block and forward self-invalidated data to the
     * predicted next consumer instead of parking it at home.
     */
    bool enableForwarding = false;
};

/**
 * One directory controller, owned by its home node.
 *
 * Outgoing messages go through the Interconnect; verification outcomes for
 * self-invalidations are reported through a hook so that the
 * self-invalidating node's predictor can be trained. Hardware carries
 * these bits on a message, so each verdict reaches the hook one network
 * hop (oneHopLatency()) after the directory decides it, on the receiving
 * node's shard, on channel chan::verify(home, node). A verdict uses no
 * NI bandwidth and is not counted as a message.
 */
class DirController
{
  public:
    /** (node, blk, premature, timely) — verification outcome for node.
     *  Runs on node's shard, one network hop after the verdict. */
    using VerifyHook = std::function<void(NodeId, Addr, bool, bool)>;

    DirController(NodeId node, ParallelScheduler &sched, Interconnect &net,
                  DirParams params, StatGroup &stats);

    /** Deliver an inbound protocol message (network sink). */
    void receive(const Message &msg);

    /** Install the verification-outcome hook. */
    void setVerifyHook(VerifyHook hook) { verifyHook_ = std::move(hook); }

    /** Access to raw directory state (tests, storage accounting). */
    Directory &directory() { return dir_; }
    const Directory &directory() const { return dir_; }

    NodeId nodeId() const { return node_; }

  private:
    /** A message waiting for the protocol engine. */
    struct Queued
    {
        Message msg;
        Tick arrival;
    };

    /** An in-flight transaction for one block. */
    struct Txn
    {
        Message req;              //!< the original GetS/GetX
        bool awaitingWb = false;  //!< WbReq outstanding to the old owner
        unsigned pendingAcks = 0; //!< Inv acks still outstanding
        std::uint64_t ackedNodes = 0;
        bool requesterHadCopy = false;
        /** Verification verdict to piggyback on the reply. */
        Verification verdict = Verification::None;
    };

    void engineKick();
    /** Process one message; returns its service latency. */
    Tick process(const Queued &q);

    Tick handleRequest(const Message &msg);
    Tick handleGetS(const Message &msg, DirEntry &e);
    Tick handleGetX(const Message &msg, DirEntry &e);
    Tick handleAck(const Message &msg);
    Tick handleSelfInvOrEvict(const Message &msg);

    /** Complete a writeback-style transaction with data from @p from. */
    Tick completeWithWriteback(Addr blk, DirEntry &e, Txn &txn);
    /** Finish a GetX transaction once all invalidations are acked. */
    Tick completeInvalidation(Addr blk, DirEntry &e, Txn &txn);

    /**
     * Run the Section 4 verification-mask logic for an incoming request.
     * Returns the verification verdict to piggyback on the data reply.
     */
    Verification processVerification(const Message &msg, DirEntry &e);

    /** Deliver a verification verdict to @p n's hook one hop later. */
    void reportVerdict(NodeId n, Addr blk, bool premature, bool timely);

    /** Compute the DSI candidate bit for a data reply. */
    bool dsiCandidate(const Message &req, const DirEntry &e,
                      bool migratory_exception) const;

    void send(Message msg, Tick delay);

    /**
     * Send the data message @p msg (a reply, or a forward) @p delay
     * ticks from now, and keep its block busy until then: the reply
     * window, while the data is still being assembled. Any new request
     * for the block, or a flush racing the reply, is deferred until the
     * data is on the wire, which (with FIFO channels) guarantees the
     * receiver's fill arrives before any invalidation we later send it.
     * One event sends the data and then unlocks the block, so nothing
     * can run between the two.
     */
    void sendData(Message msg, Tick delay);
    void unlock(Addr blk);

    NodeId node_;
    ParallelScheduler &sched_;
    EventQueue &eq_;
    Interconnect &net_;
    DirParams params_;
    Tick verifyDelay_; //!< one network hop (oneHopLatency)

    Directory dir_;
    std::deque<Queued> inq_;
    bool engineBusy_ = false;
    FlatMap<Addr, Txn> txns_;
    FlatMap<Addr, std::deque<Queued>> deferred_;

    VerifyHook verifyHook_;
    SharingPredictor sharing_;

    Average &queueing_;
    Average &service_;
    Counter &requests_;
    Counter &selfInvTimelyCorrect_;
    Counter &selfInvLateCorrect_;
    Counter &selfInvPremature_;
    Counter &staleDrops_;
    Counter &forwards_;
};

} // namespace ltp

#endif // LTP_PROTO_DIR_CONTROLLER_HH
