/**
 * @file
 * The home-node directory controller.
 *
 * Implements the full-map write-invalidate protocol of Section 2 (the
 * migratory-favoring variant that invalidates a writer's copy on a read),
 * the self-invalidation handling and verification mask of Section 4, and
 * DSI's write-versioning.
 *
 * One request runs one transaction. It is granted at once when no other
 * cache holds a conflicting copy; otherwise the directory locks the block
 * and recalls the copies, a WbReq to the owner or an Inv to each sharer.
 * Each answer (WbData, InvAck, or a SelfInv that crossed the recall) is
 * counted in one place, and the last one completes the transaction with
 * the same grant an uncontended request gets.
 *
 * Timing follows the paper's methodology: an aggressive two-stage
 * pipelined protocol engine. Messages queue FIFO at the controller; the
 * engine starts a new message every (service latency / 2) cycles and a
 * message's protocol actions complete after its full service latency.
 * Queueing delay and service time per message are the observables of
 * Table 4. A message that finds its block busy costs the engine a pass
 * that parks it; it is counted and sampled once, on the pass that
 * serves it: queueing from its arrival to that pass (parked time
 * included), service that pass's latency.
 */

#ifndef LTP_PROTO_DIR_CONTROLLER_HH
#define LTP_PROTO_DIR_CONTROLLER_HH

#include <deque>
#include <functional>
#include <optional>

#include "net/message.hh"
#include "net/topo/interconnect.hh"
#include "proto/directory.hh"
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
     *  Runs on node's shard, one network hop after the verdict. The hook
     *  only ever hears of correct self-invalidations (premature is
     *  false): a premature one travels on the data reply instead. */
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
        Message req;             //!< the original GetS/GetX
        bool awaitingWb = false; //!< WbReq outstanding to the old owner
        /** Recalled nodes whose answer is still due: the owner for a
         *  WbReq, the other sharers for an Inv fan-out. */
        std::uint64_t waiting = 0;
        /** Verification verdict to piggyback on the reply. */
        Verification verdict = Verification::None;

        /** Whether @p n's reply answers this transaction's recall: one
         *  carrying the block (@p data: WbData, SelfInvX) answers the
         *  WbReq, one without (InvAck, SelfInvS) the Inv fan-out. */
        bool
        answeredBy(NodeId n, bool data) const
        {
            return data == awaitingWb && ((waiting >> n) & 1);
        }
    };

    void engineKick();
    /** Serve one message and return its service latency, or park it
     *  on its busy block and return nothing. */
    std::optional<Tick> process(const Queued &q);

    /** A GetS or GetX for the unlocked block @p e. */
    Tick handleRequest(const Message &msg, DirEntry &e);
    /** An InvAck or WbData answering a recall. */
    Tick handleAck(const Message &msg);
    /** A SelfInv flush of block @p e, outside a reply window. */
    Tick handleSelfInv(const Message &msg, DirEntry &e);

    /**
     * Grant @p req's requester the block, Shared for a GetS and
     * Exclusive for a GetX, and send the data reply carrying @p verdict.
     * An @p upgrade (a sole sharer's GetX) needs no memory access and is
     * never a DSI candidate.
     */
    Tick grant(const Message &req, DirEntry &e, Verification verdict,
               bool upgrade);
    /** Grant the transaction's request and end the transaction. */
    Tick complete(DirEntry &e, Txn &txn);
    /** Count recalled node @p n's answer; the last one completes. */
    Tick countAnswer(DirEntry &e, Txn &txn, NodeId n);

    /**
     * Run the Section 4 verification-mask logic for an incoming request.
     * Returns the verification verdict to piggyback on the data reply.
     */
    Verification processVerification(const Message &msg, DirEntry &e);

    /** Count @p n's self-invalidation of @p blk as correct, and deliver
     *  the verdict to @p n's hook one hop later. */
    void reportCorrect(NodeId n, Addr blk, bool timely);

    /** Compute the DSI candidate bit for a data reply. */
    bool dsiCandidate(const Message &req, const DirEntry &e) const;

    void send(Message msg, Tick delay);
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
    /**
     * Per block, the nodes whose self-invalidation crossed a recall and
     * answered it. Each still owes the plain InvAck it sends when the
     * recall finds its copy gone; that ack is stale.
     */
    FlatMap<Addr, std::uint64_t> owedAcks_;

    VerifyHook verifyHook_;

    Average &queueing_;
    Average &service_;
    Counter &requests_;
    Counter &selfInvTimelyCorrect_;
    Counter &selfInvLateCorrect_;
    Counter &selfInvPremature_;
    Counter &staleDrops_;
};

} // namespace ltp

#endif // LTP_PROTO_DIR_CONTROLLER_HH
