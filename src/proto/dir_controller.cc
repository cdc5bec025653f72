#include "proto/dir_controller.hh"

#include <cassert>

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
      staleDrops_(stats.counter("dir.staleDrops")),
      forwards_(stats.counter("dir.forwards"))
{
}

void
DirController::receive(const Message &msg)
{
    inq_.push_back(Queued{msg, eq_.now()});
    engineKick();
}

void
DirController::engineKick()
{
    if (engineBusy_ || inq_.empty())
        return;
    Queued q = inq_.front();
    inq_.pop_front();

    queueing_.sample(double(eq_.now() - q.arrival));
    Tick latency = process(q);
    service_.sample(double(latency));
    // One directory transaction: arrival through queueing and service,
    // named by the message that drove it, requester in a0.
    sched_.tracer().span(obs::Cat::Directory, node_,
                         msgTypeName(q.msg.type), q.arrival,
                         eq_.now() + latency, q.msg.src, q.msg.addr);

    Tick occupancy = params_.pipelined ? std::max<Tick>(latency / 2, 1)
                                       : std::max<Tick>(latency, 1);
    engineBusy_ = true;
    eq_.scheduleIn(occupancy, [this] {
        engineBusy_ = false;
        engineKick();
    });
}

Tick
DirController::process(const Queued &q)
{
    const Message &msg = q.msg;
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX: {
        requests_.inc();
        DirEntry &e = dir_.entry(msg.addr);
        if (e.busy) {
            // Block-level serialization: park the request until the
            // in-flight transaction completes.
            deferred_[msg.addr].push_back(q);
            return params_.engineOverhead;
        }
        return handleRequest(msg);
      }
      case MsgType::InvAck:
      case MsgType::WbData:
        return handleAck(msg);
      case MsgType::SelfInvS:
      case MsgType::SelfInvX:
      case MsgType::EvictS:
      case MsgType::EvictX: {
        DirEntry &e = dir_.entry(msg.addr);
        if (e.busy && !txns_.contains(msg.addr)) {
            // A data reply for this block is still being assembled
            // (reply window): park the flush until it is on the wire.
            deferred_[msg.addr].push_back(q);
            return params_.engineOverhead;
        }
        return handleSelfInvOrEvict(msg);
      }
      default:
        assert(false && "unexpected message at directory");
        return params_.engineOverhead;
    }
}

Verification
DirController::processVerification(const Message &msg, DirEntry &e)
{
    NodeId r = msg.src;
    Addr blk = msg.addr;
    Verification verdict = Verification::None;

    if (e.inVerifMask(r)) {
        // The node that self-invalidated is back for the block: its
        // self-invalidation was premature.
        e.clearVerif(r);
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
        bool timely = e.clearVerif(n);
        if (timely)
            selfInvTimelyCorrect_.inc();
        else
            selfInvLateCorrect_.inc();
        reportVerdict(n, blk, /*premature=*/false, timely);
    }
    return verdict;
}

void
DirController::reportVerdict(NodeId n, Addr blk, bool premature,
                             bool timely)
{
    if (!verifyHook_)
        return;
    // The verdict trains another node's predictor, so it crosses shards
    // like a message: one hop later, on its own channel, without NI
    // occupancy. The delay is never below the engine's window.
    sched_.post(n, eq_.now() + verifyDelay_, chan::verify(node_, n),
                [this, n, blk, premature, timely] {
                    verifyHook_(n, blk, premature, timely);
                });
}

bool
DirController::dsiCandidate(const Message &req, const DirEntry &e,
                            bool migratory_exception) const
{
    if (migratory_exception)
        return false;
    if (req.version == noVersion)
        return false; // cold access: no recorded version, not a candidate
    return req.version != e.version;
}

Tick
DirController::handleRequest(const Message &msg)
{
    DirEntry &e = dir_.entry(msg.addr);
    // Only forwarding reads the sharing predictor (predictNext below);
    // with it off, training would just grow the per-block tables.
    if (params_.enableForwarding)
        sharing_.observeRequest(msg.addr, msg.src);
    if (msg.type == MsgType::GetS)
        return handleGetS(msg, e);
    return handleGetX(msg, e);
}

Tick
DirController::handleGetS(const Message &msg, DirEntry &e)
{
    Verification verdict = processVerification(msg, e);
    NodeId r = msg.src;
    Addr blk = msg.addr;

    switch (e.state) {
      case DirState::Idle:
      case DirState::Shared: {
        e.state = DirState::Shared;
        e.addSharer(r);
        Message reply;
        reply.type = MsgType::DataS;
        reply.src = node_;
        reply.dst = r;
        reply.addr = blk;
        reply.version = e.version;
        reply.dsiCandidate = dsiCandidate(msg, e, false);
        reply.verification = verdict;
        Tick latency = params_.engineOverhead + params_.memAccess;
        sendData(reply, latency);
        return latency;
      }
      case DirState::Exclusive: {
        assert(e.owner != r && "owner re-requesting its own block");
        e.busy = true;
        Txn txn;
        txn.req = msg;
        txn.awaitingWb = true;
        txn.verdict = verdict;
        txns_[blk] = txn;
        Message wb;
        wb.type = MsgType::WbReq;
        wb.src = node_;
        wb.dst = e.owner;
        wb.addr = blk;
        wb.requester = r;
        send(wb, params_.engineOverhead);
        return params_.engineOverhead;
      }
    }
    return params_.engineOverhead;
}

Tick
DirController::handleGetX(const Message &msg, DirEntry &e)
{
    Verification verdict = processVerification(msg, e);
    NodeId r = msg.src;
    Addr blk = msg.addr;

    switch (e.state) {
      case DirState::Idle: {
        bool cand = dsiCandidate(msg, e, false);
        // The reply carries the version of the data as fetched; the
        // grantee's own write bumps the directory version past it, so a
        // re-fetching writer compares unequal (actively shared).
        std::uint64_t fetched_version = e.version;
        e.state = DirState::Exclusive;
        e.owner = r;
        e.version++;
        Message reply;
        reply.type = MsgType::DataX;
        reply.src = node_;
        reply.dst = r;
        reply.addr = blk;
        reply.version = fetched_version;
        reply.dsiCandidate = cand;
        reply.verification = verdict;
        Tick latency = params_.engineOverhead + params_.memAccess;
        sendData(reply, latency);
        return latency;
      }
      case DirState::Shared: {
        bool sole = (e.sharers == bitOf(r));
        if (sole) {
            // Upgrade by the only sharer: the migratory pattern DSI
            // deliberately refuses to mark as a candidate (Section 5.1).
            e.removeSharer(r);
            std::uint64_t fetched_version = e.version;
            e.state = DirState::Exclusive;
            e.owner = r;
            e.version++;
            Message reply;
            reply.type = MsgType::DataX;
            reply.src = node_;
            reply.dst = r;
            reply.addr = blk;
            reply.version = fetched_version;
            reply.dsiCandidate = false;
            reply.verification = verdict;
            Tick latency = params_.engineOverhead;
            sendData(reply, latency);
            return latency;
        }
        e.busy = true;
        Txn txn;
        txn.req = msg;
        txn.requesterHadCopy = e.isSharer(r);
        if (txn.requesterHadCopy)
            e.removeSharer(r);
        txn.pendingAcks = e.numSharers();
        assert(txn.pendingAcks > 0);
        std::uint64_t sharers = e.sharers;
        while (sharers) {
            NodeId n = NodeId(__builtin_ctzll(sharers));
            sharers &= sharers - 1;
            Message inv;
            inv.type = MsgType::Inv;
            inv.src = node_;
            inv.dst = n;
            inv.addr = blk;
            inv.requester = r;
            send(inv, params_.engineOverhead);
        }
        txn.verdict = verdict;
        txns_[blk] = txn;
        return params_.engineOverhead;
      }
      case DirState::Exclusive: {
        assert(e.owner != r && "owner issuing GetX for its own block");
        e.busy = true;
        Txn txn;
        txn.req = msg;
        txn.awaitingWb = true;
        txn.verdict = verdict;
        txns_[blk] = txn;
        Message wb;
        wb.type = MsgType::WbReq;
        wb.src = node_;
        wb.dst = e.owner;
        wb.addr = blk;
        wb.requester = r;
        send(wb, params_.engineOverhead);
        return params_.engineOverhead;
      }
    }
    return params_.engineOverhead;
}

Tick
DirController::handleAck(const Message &msg)
{
    Addr blk = msg.addr;
    Txn *txnp = txns_.find(blk);
    if (!txnp) {
        staleDrops_.inc();
        return params_.engineOverhead;
    }
    Txn &txn = *txnp;
    DirEntry &e = dir_.entry(blk);

    if (msg.type == MsgType::WbData) {
        if (!txn.awaitingWb) {
            staleDrops_.inc();
            return params_.engineOverhead;
        }
        txn.awaitingWb = false;
        return completeWithWriteback(blk, e, txn);
    }

    // InvAck
    if (txn.awaitingWb) {
        // Ack from an owner that had already shipped its copy home; the
        // data message (FIFO-ordered ahead of this ack) finished the
        // transaction or will: this ack carries no information.
        staleDrops_.inc();
        return params_.engineOverhead;
    }
    NodeId n = msg.src;
    if (txn.ackedNodes & bitOf(n)) {
        staleDrops_.inc();
        return params_.engineOverhead;
    }
    txn.ackedNodes |= bitOf(n);
    e.removeSharer(n);
    assert(txn.pendingAcks > 0);
    if (--txn.pendingAcks == 0)
        return completeInvalidation(blk, e, txn);
    return params_.engineOverhead;
}

Tick
DirController::completeWithWriteback(Addr blk, DirEntry &e, Txn &txn)
{
    NodeId r = txn.req.src;
    bool cand = dsiCandidate(txn.req, e, false);
    e.owner = invalidNode;

    Message reply;
    reply.src = node_;
    reply.dst = r;
    reply.addr = blk;
    reply.dsiCandidate = cand;
    reply.verification = txn.verdict;
    reply.version = e.version; // version of the data as fetched
    if (txn.req.type == MsgType::GetX) {
        e.state = DirState::Exclusive;
        e.owner = r;
        e.version++;
        reply.type = MsgType::DataX;
    } else {
        e.state = DirState::Shared;
        e.sharers = 0;
        e.addSharer(r);
        reply.type = MsgType::DataS;
    }
    Tick latency = params_.engineOverhead + params_.memAccess;
    sendData(reply, latency);
    txns_.erase(blk);
    return latency;
}

Tick
DirController::completeInvalidation(Addr blk, DirEntry &e, Txn &txn)
{
    NodeId r = txn.req.src;
    bool cand = dsiCandidate(txn.req, e, false);
    std::uint64_t fetched_version = e.version;
    e.state = DirState::Exclusive;
    e.sharers = 0;
    e.owner = r;
    e.version++;

    Message reply;
    reply.type = MsgType::DataX;
    reply.src = node_;
    reply.dst = r;
    reply.addr = blk;
    reply.version = fetched_version;
    reply.dsiCandidate = cand;
    reply.verification = txn.verdict;
    Tick latency = params_.engineOverhead + params_.memAccess;
    sendData(reply, latency);
    txns_.erase(blk);
    return latency;
}

Tick
DirController::handleSelfInvOrEvict(const Message &msg)
{
    Addr blk = msg.addr;
    NodeId n = msg.src;
    bool is_self = msg.type == MsgType::SelfInvS ||
                   msg.type == MsgType::SelfInvX;
    bool is_x = msg.type == MsgType::SelfInvX ||
                msg.type == MsgType::EvictX;
    DirEntry &e = dir_.entry(blk);
    Txn *txnp = txns_.find(blk);

    if (e.busy && txnp) {
        Txn &txn = *txnp;
        if (txn.awaitingWb && is_x && e.owner == n) {
            // The copy we asked the owner to write back was already on
            // its way home: consume it as the writeback. A
            // self-invalidation landing here was correct but late.
            if (is_self) {
                selfInvLateCorrect_.inc();
                reportVerdict(n, blk, false, /*timely=*/false);
            }
            txn.awaitingWb = false;
            txn.ackedNodes |= bitOf(n);
            return completeWithWriteback(blk, e, txn);
        }
        if (!txn.awaitingWb && !is_x && e.isSharer(n)) {
            // Racing a pending invalidation fan-out: count as the ack.
            if (is_self) {
                selfInvLateCorrect_.inc();
                reportVerdict(n, blk, false, /*timely=*/false);
            }
            if (!(txn.ackedNodes & bitOf(n))) {
                txn.ackedNodes |= bitOf(n);
                e.removeSharer(n);
                assert(txn.pendingAcks > 0);
                if (--txn.pendingAcks == 0)
                    return completeInvalidation(blk, e, txn);
            }
            return params_.engineOverhead;
        }
        staleDrops_.inc();
        return params_.engineOverhead;
    }

    // No transaction in flight: the self-invalidation reached home ahead
    // of any subsequent request — it is (so far) timely.
    if (is_x) {
        if (e.state == DirState::Exclusive && e.owner == n) {
            e.state = DirState::Idle;
            e.owner = invalidNode;
            // Sharing-prediction extension: hand the fresh data
            // straight to the predicted next consumer.
            if (is_self && params_.enableForwarding) {
                if (auto next = sharing_.predictNext(blk, n);
                    next && *next != n) {
                    // The forward itself proves the self-invalidation
                    // correct and timely (the consumer never needs to
                    // ask).
                    selfInvTimelyCorrect_.inc();
                    reportVerdict(n, blk, /*premature=*/false, true);
                    e.state = DirState::Shared;
                    e.addSharer(*next);
                    forwards_.inc();
                    Message fwd;
                    fwd.type = MsgType::DataFwd;
                    fwd.src = node_;
                    fwd.dst = *next;
                    fwd.addr = blk;
                    fwd.version = e.version;
                    Tick latency =
                        params_.engineOverhead + params_.memAccess;
                    sendData(fwd, latency);
                    return latency;
                }
            }
            if (is_self) {
                e.setVerif(n, /*timely=*/true);
                e.writeCopyMask |= bitOf(n);
            }
            return params_.engineOverhead + params_.memAccess;
        }
        staleDrops_.inc();
        return params_.engineOverhead;
    }
    if (e.isSharer(n)) {
        e.removeSharer(n);
        if (e.state == DirState::Shared && e.numSharers() == 0)
            e.state = DirState::Idle;
        if (is_self)
            e.setVerif(n, /*timely=*/true);
        return params_.engineOverhead;
    }
    staleDrops_.inc();
    return params_.engineOverhead;
}

void
DirController::send(Message msg, Tick delay)
{
    eq_.scheduleIn(delay, [this, msg] { net_.send(msg); });
}

void
DirController::sendData(Message msg, Tick delay)
{
    dir_.entry(msg.addr).busy = true;
    eq_.scheduleIn(delay, [this, msg] {
        net_.send(msg);
        unlock(msg.addr);
    });
}

void
DirController::unlock(Addr blk)
{
    dir_.entry(blk).busy = false;
    if (std::deque<Queued> *parked = deferred_.find(blk)) {
        // Re-inject parked requests ahead of newer arrivals, preserving
        // their original arrival order and timestamps.
        for (auto rit = parked->rbegin(); rit != parked->rend(); ++rit)
            inq_.push_front(*rit);
        deferred_.erase(blk);
        engineKick();
    }
}

} // namespace ltp
