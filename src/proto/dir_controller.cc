#include "proto/dir_controller.hh"

#include <cassert>
#include <stdexcept>
#include <string>

namespace ltp
{

namespace
{

constexpr std::uint64_t
bitOf(NodeId n)
{
    return std::uint64_t(1) << n;
}

/** Version value meaning "requester has never cached this block". */
constexpr std::uint64_t noVersion = ~std::uint64_t(0);

} // namespace

const char *
dirStateName(DirState s)
{
    switch (s) {
      case DirState::Idle: return "Idle";
      case DirState::Shared: return "Shared";
      case DirState::Exclusive: return "Exclusive";
    }
    return "?";
}

DirController::DirController(NodeId node, ParallelScheduler &sched,
                             Interconnect &net, DirParams params,
                             StatGroup &stats)
    : node_(node),
      sched_(sched),
      eq_(sched.queueFor(node)),
      net_(net),
      params_(params),
      verifyDelay_(oneHopLatency(net.params())),
      queueing_(stats.average("dir.queueing")),
      service_(stats.average("dir.service")),
      requests_(stats.counter("dir.requests")),
      selfInvTimelyCorrect_(stats.counter("dir.selfInvTimelyCorrect")),
      selfInvLateCorrect_(stats.counter("dir.selfInvLateCorrect")),
      selfInvPremature_(stats.counter("dir.selfInvPremature")),
      staleDrops_(stats.counter("dir.staleDrops"))
{
}

void
DirController::receive(const Message &msg)
{
    push(inq_, allocQueued(msg, eq_.now()));
    engineKick();
}

void
DirController::engineKick()
{
    if (inq_ == DirEntry::none)
        return;
    if (!eq_.reached(freeAt_)) {
        armWake();
        return;
    }
    std::uint32_t i = pop(inq_);
    const Queued q = pool_[i];

    std::optional<Tick> served = process(q.msg, i);
    Tick latency = served.value_or(params_.engineOverhead);
    if (served) {
        pool_[i].next = freeQueued_;
        freeQueued_ = i;
        queueing_.sample(double(eq_.now() - q.arrival));
        service_.sample(double(latency));
    }
    // One directory transaction: arrival through queueing and service,
    // named by the message that drove it, requester in a0.
    sched_.tracer().span(obs::Cat::Directory, node_,
                         msgTypeName(q.msg.type), q.arrival,
                         eq_.now() + latency, q.msg.src, q.msg.addr);

    Tick occupancy = params_.pipelined ? std::max<Tick>(latency / 2, 1)
                                       : std::max<Tick>(latency, 1);
    freeAt_ = eq_.reserve(eq_.now() + occupancy);
    if (inq_ != DirEntry::none)
        armWake();
}

void
DirController::armWake()
{
    if (wakeArmed_)
        return;
    wakeArmed_ = true;
    eq_.scheduleAt(freeAt_, [this] {
        wakeArmed_ = false;
        engineKick();
    });
}

std::optional<Tick>
DirController::process(const Message &msg, std::uint32_t q)
{
    DirEntry &e = dir_.entry(msg.addr);
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
        if (e.busy) {
            // Block-level serialization: park the request until the
            // in-flight transaction completes.
            push(e.parked, q);
            return std::nullopt;
        }
        requests_.inc();
        return handleRequest(msg, e);
      case MsgType::InvAck:
      case MsgType::WbData:
        return handleAck(msg, e);
      case MsgType::SelfInvS:
      case MsgType::SelfInvX:
        if (e.busy && e.txn == DirEntry::none) {
            // A data reply for this block is still being assembled
            // (reply window): park the flush until it is on the wire.
            push(e.parked, q);
            return std::nullopt;
        }
        return handleSelfInv(msg, e);
      default:
        throw std::logic_error(std::string("unexpected ") +
                               msgTypeName(msg.type) +
                               " at the directory of node " +
                               std::to_string(node_));
    }
}

Verification
DirController::processVerification(const Message &msg, DirEntry &e)
{
    Verification verdict = Verification::None;
    if (e.inVerifMask(msg.src)) {
        // The node that self-invalidated is back for the block: its
        // self-invalidation was premature.
        e.clearVerif(msg.src);
        selfInvPremature_.inc();
        verdict = Verification::Premature;
    }

    // A write request proves every outstanding self-invalidation correct;
    // a read request only proves self-invalidated *write* copies correct
    // (the read/write phase changed for those).
    std::uint64_t confirm = e.verifMask;
    if (msg.type == MsgType::GetS)
        confirm &= e.writeCopyMask;
    while (confirm) {
        NodeId n = NodeId(__builtin_ctzll(confirm));
        confirm &= confirm - 1;
        reportCorrect(n, msg.addr, e.clearVerif(n));
    }
    return verdict;
}

void
DirController::reportCorrect(NodeId n, Addr blk, bool timely)
{
    (timely ? selfInvTimelyCorrect_ : selfInvLateCorrect_).inc();
    if (!verifyHook_)
        return;
    // The verdict trains another node's predictor, so it crosses shards
    // like a message: one hop later, on its own channel, without NI
    // occupancy. The delay is never below the engine's window.
    sched_.post(n, eq_.now() + verifyDelay_, chan::verify(node_, n),
                [this, n, blk, timely] {
                    verifyHook_(n, blk, /*premature=*/false, timely);
                });
}

bool
DirController::dsiCandidate(const Message &req, const DirEntry &e) const
{
    // A cold access has no recorded version: not a candidate.
    return req.version != noVersion && req.version != e.version;
}

Tick
DirController::handleRequest(const Message &msg, DirEntry &e)
{
    Verification verdict = processVerification(msg, e);
    NodeId r = msg.src;
    bool write = msg.type == MsgType::GetX;

    if (e.state == DirState::Idle || (e.state == DirState::Shared && !write))
        return grant(msg, e, verdict, /*upgrade=*/false);
    if (e.state == DirState::Shared && e.sharers == bitOf(r))
        return grant(msg, e, verdict, /*upgrade=*/true);

    // Another cache holds a conflicting copy: lock the block and recall
    // the copy from the owner, or every other sharer's copy.
    Txn txn;
    txn.req = msg;
    txn.verdict = verdict;
    Message recall;
    recall.src = node_;
    recall.addr = msg.addr;
    recall.requester = r;
    if (e.state == DirState::Exclusive) {
        assert(e.owner != r && "owner re-requesting its own block");
        txn.awaitingWb = true;
        txn.waiting = bitOf(e.owner);
        recall.type = MsgType::WbReq;
        recall.dst = e.owner;
        send(recall, params_.engineOverhead);
    } else {
        e.removeSharer(r);
        txn.waiting = e.sharers;
        assert(txn.waiting != 0);
        recall.type = MsgType::Inv;
        for (std::uint64_t s = e.sharers; s; s &= s - 1) {
            recall.dst = NodeId(__builtin_ctzll(s));
            send(recall, params_.engineOverhead);
        }
    }
    e.busy = true;
    if (freeTxns_.empty()) {
        e.txn = std::uint32_t(txnPool_.size());
        txnPool_.push_back(txn);
    } else {
        e.txn = freeTxns_.back();
        freeTxns_.pop_back();
        txnPool_[e.txn] = txn;
    }
    return params_.engineOverhead;
}

Tick
DirController::grant(const Message &req, DirEntry &e, Verification verdict,
                     bool upgrade)
{
    NodeId r = req.src;
    Message reply;
    reply.src = node_;
    reply.dst = r;
    reply.addr = req.addr;
    // The reply carries the version of the data as fetched; an exclusive
    // grant bumps the directory version past it, so a re-fetching writer
    // compares unequal (actively shared). A sole sharer's upgrade is the
    // migratory pattern DSI deliberately refuses to mark as a candidate
    // (Section 5.1).
    reply.version = e.version;
    reply.dsiCandidate = !upgrade && dsiCandidate(req, e);
    reply.verification = verdict;
    if (req.type == MsgType::GetX) {
        reply.type = MsgType::DataX;
        e.state = DirState::Exclusive;
        e.sharers = 0;
        e.owner = r;
        e.version++;
    } else {
        reply.type = MsgType::DataS;
        e.state = DirState::Shared;
        e.owner = invalidNode;
        e.addSharer(r);
    }

    // The reply window: keep the block busy while the data is assembled.
    // Any new request for the block, or a flush racing the reply, is
    // deferred until the data is on the wire, which (with FIFO channels)
    // guarantees the requester's fill arrives before any invalidation we
    // later send it. One event sends the data and then unlocks the
    // block, so nothing can run between the two. An upgrading sharer
    // already holds the data: no memory access.
    Tick latency = params_.engineOverhead + (upgrade ? 0 : params_.memAccess);
    e.busy = true;
    eq_.scheduleIn(latency, [this, reply] {
        net_.send(reply);
        unlock(reply.addr);
    });
    return latency;
}

Tick
DirController::complete(DirEntry &e)
{
    const Txn &txn = txnPool_[e.txn];
    Tick latency = grant(txn.req, e, txn.verdict, /*upgrade=*/false);
    freeTxns_.push_back(e.txn);
    e.txn = DirEntry::none;
    return latency;
}

Tick
DirController::countAnswer(DirEntry &e, Txn &txn, NodeId n)
{
    txn.waiting &= ~bitOf(n);
    e.removeSharer(n);
    if (txn.waiting == 0)
        return complete(e);
    return params_.engineOverhead;
}

Tick
DirController::handleAck(const Message &msg, DirEntry &e)
{
    // An owed ack is its sender's next reply for the block (the node's
    // channel home is FIFO), so it is stale even when a later recall
    // waits for the same node: that node re-requested the block after
    // its self-invalidation, and its answer to the new recall comes
    // next. Anything else that does not answer the current recall is
    // stale too.
    if (e.owedAcks & bitOf(msg.src)) {
        e.owedAcks &= ~bitOf(msg.src);
        staleDrops_.inc();
        return params_.engineOverhead;
    }
    if (e.txn == DirEntry::none ||
        !txnPool_[e.txn].answeredBy(msg.src, carriesData(msg.type))) {
        staleDrops_.inc();
        return params_.engineOverhead;
    }
    return countAnswer(e, txnPool_[e.txn], msg.src);
}

Tick
DirController::handleSelfInv(const Message &msg, DirEntry &e)
{
    Addr blk = msg.addr;
    NodeId n = msg.src;
    bool is_x = msg.type == MsgType::SelfInvX;

    if (e.txn != DirEntry::none) {
        // The copy crossed our recall on its way home: the owner's copy
        // stands in for the writeback, a sharer's drop for its ack. A
        // self-invalidation landing here was correct but late.
        Txn &txn = txnPool_[e.txn];
        if (!txn.answeredBy(n, is_x)) {
            staleDrops_.inc();
            return params_.engineOverhead;
        }
        reportCorrect(n, blk, /*timely=*/false);
        e.owedAcks |= bitOf(n);
        return countAnswer(e, txn, n);
    }

    bool holds = is_x ? e.state == DirState::Exclusive && e.owner == n
                      : e.isSharer(n);
    if (!holds) {
        staleDrops_.inc();
        return params_.engineOverhead;
    }
    // No transaction in flight: the self-invalidation reached home ahead
    // of any subsequent request — it is (so far) timely.
    e.setVerif(n, /*timely=*/true);
    if (is_x) {
        e.writeCopyMask |= bitOf(n);
        e.state = DirState::Idle;
        e.owner = invalidNode;
        return params_.engineOverhead + params_.memAccess;
    }
    e.removeSharer(n);
    if (e.numSharers() == 0)
        e.state = DirState::Idle;
    return params_.engineOverhead;
}

void
DirController::send(Message msg, Tick delay)
{
    eq_.scheduleIn(delay, [this, msg] { net_.send(msg); });
}

void
DirController::unlock(Addr blk)
{
    DirEntry &e = dir_.entry(blk);
    e.busy = false;
    if (e.parked == DirEntry::none)
        return;
    // Re-inject parked requests ahead of newer arrivals, preserving
    // their original arrival order and timestamps: splice the parked
    // circle in before the queue's head.
    if (inq_ == DirEntry::none) {
        inq_ = e.parked;
    } else {
        std::uint32_t parkedHead = pool_[e.parked].next;
        pool_[e.parked].next = pool_[inq_].next;
        pool_[inq_].next = parkedHead;
    }
    e.parked = DirEntry::none;
    engineKick();
}

std::uint32_t
DirController::allocQueued(const Message &msg, Tick arrival)
{
    std::uint32_t q = freeQueued_;
    if (q == DirEntry::none) {
        q = std::uint32_t(pool_.size());
        pool_.emplace_back();
    } else {
        freeQueued_ = pool_[q].next;
    }
    pool_[q] = Queued{msg, arrival, DirEntry::none};
    return q;
}

void
DirController::push(std::uint32_t &tail, std::uint32_t q)
{
    if (tail == DirEntry::none) {
        pool_[q].next = q;
    } else {
        pool_[q].next = pool_[tail].next;
        pool_[tail].next = q;
    }
    tail = q;
}

std::uint32_t
DirController::pop(std::uint32_t &tail)
{
    std::uint32_t head = pool_[tail].next;
    if (head == tail)
        tail = DirEntry::none;
    else
        pool_[tail].next = pool_[head].next;
    return head;
}

} // namespace ltp
