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
 *
 * The engine is free again at a reserved place in the event order
 * (EventQueue::reserve), the place its occupancy timer would take: a
 * message arriving at or past it is served at once, and a backlog arms
 * one wake there. No event runs for an engine that has nothing to do.
 * Waiting messages (the input queue and each busy block's parked
 * requests) are circular FIFOs in one pooled vector, so unlocking a
 * block puts its parked requests back ahead of the queue in O(1), and
 * the steady state allocates nothing.
 */

#ifndef LTP_PROTO_DIR_CONTROLLER_HH
#define LTP_PROTO_DIR_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/message.hh"
#include "net/topo/interconnect.hh"
#include "proto/directory.hh"
#include "sim/event_queue.hh"
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

    /**
     * Deliver an inbound protocol message (network sink). The engine
     * throws std::logic_error when it serves a type a directory does
     * not handle.
     */
    void receive(const Message &msg);

    /** Install the verification-outcome hook. */
    void setVerifyHook(VerifyHook hook) { verifyHook_ = std::move(hook); }

    /** Access to raw directory state (tests, storage accounting). */
    Directory &directory() { return dir_; }
    const Directory &directory() const { return dir_; }

    NodeId nodeId() const { return node_; }

    /**
     * The tick the engine's last pass occupies it until. It can lie
     * past the queue's last event: the run's end is the later of the
     * two (DsmSystem).
     */
    Tick busyUntil() const { return freeAt_.when; }

  private:
    /** A message waiting for the protocol engine, in the pool. */
    struct Queued
    {
        Message msg;
        Tick arrival;
        /** Next in its circular FIFO (the tail's is the head), or in
         *  the free list. */
        std::uint32_t next;
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

    /** Serve the queue's head if the engine is free, else wake later. */
    void engineKick();
    /** Schedule one wake at the engine's free position. */
    void armWake();
    /** Serve message @p msg (pool entry @p q) and return its service
     *  latency, or park it on its busy block and return nothing. */
    std::optional<Tick> process(const Message &msg, std::uint32_t q);

    /** A GetS or GetX for the unlocked block @p e. */
    Tick handleRequest(const Message &msg, DirEntry &e);
    /** An InvAck or WbData answering a recall of @p e. */
    Tick handleAck(const Message &msg, DirEntry &e);
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
    /** Grant @p e's transaction's request and end the transaction. */
    Tick complete(DirEntry &e);
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

    /** Take a pool entry for @p msg, arrived at @p arrival. */
    std::uint32_t allocQueued(const Message &msg, Tick arrival);
    /** Append pool entry @p q to the FIFO whose tail is @p tail. */
    void push(std::uint32_t &tail, std::uint32_t q);
    /** Unlink and return the head of the non-empty FIFO @p tail. */
    std::uint32_t pop(std::uint32_t &tail);

    NodeId node_;
    ParallelScheduler &sched_;
    EventQueue &eq_;
    Interconnect &net_;
    DirParams params_;
    Tick verifyDelay_; //!< one network hop (oneHopLatency)

    Directory dir_;
    /** Where the engine is free again; the default is free from the
     *  start. */
    EventQueue::Position freeAt_;
    bool wakeArmed_ = false; //!< a wake waits at freeAt_

    /** Queued messages; the free ones form a list from freeQueued_. */
    std::vector<Queued> pool_;
    std::uint32_t freeQueued_ = DirEntry::none;
    std::uint32_t inq_ = DirEntry::none; //!< the input queue's tail

    /** In-flight transactions, indexed by DirEntry::txn; the free
     *  slots' indices wait in freeTxns_. */
    std::vector<Txn> txnPool_;
    std::vector<std::uint32_t> freeTxns_;

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
