#include "proto/cache_controller.hh"

#include <cassert>

namespace ltp
{

namespace
{
/** Version value meaning "never cached this block before". */
constexpr std::uint64_t noVersion = ~std::uint64_t(0);
} // namespace

CacheController::CacheController(NodeId node, ParallelScheduler &sched,
                                 Interconnect &net, const HomeMap &homes,
                                 CacheParams params, StatGroup &stats)
    : node_(node),
      sched_(sched),
      eq_(sched.queueFor(node)),
      net_(net),
      homes_(homes),
      params_(params),
      cache_(params.blockSize, params.numSets, params.ways),
      hits_(stats.counter("cache.hits")),
      misses_(stats.counter("cache.misses")),
      upgrades_(stats.counter("cache.upgrades")),
      invalidationsSeen_(stats.counter("pred.invalidations")),
      predPredicted_(stats.counter("pred.predicted")),
      predNotPredicted_(stats.counter("pred.notPredicted")),
      predMispredicted_(stats.counter("pred.mispredicted")),
      selfInvsIssued_(stats.counter("pred.selfInvsIssued")),
      missLatency_(stats.average("cache.missLatency"))
{
}

void
CacheController::setPredictor(InvalidationPredictor *pred,
                              PredictorMode mode)
{
    pred_ = pred;
    mode_ = mode;
    if (pred_)
        pred_->setPort(this);
}

void
CacheController::access(Addr addr, Pc pc, bool is_write, AccessDone done)
{
    assert(!out_.valid && "processor is blocking: one access at a time");
    BlockMath math(params_.blockSize);
    Addr blk = math.align(addr);

    CacheLine *line = cache_.find(blk);
    bool hit = line && (!is_write || line->state == CacheState::Exclusive);
    if (hit) {
        hits_.inc();
        Tick lat = params_.hitLatency;
        eq_.scheduleIn(lat, [this, blk, pc, is_write,
                             done = std::move(done), lat] {
            afterTouch(blk, pc, is_write, /*fill=*/false);
            done(lat, /*was_miss=*/false);
        });
        return;
    }

    misses_.inc();
    out_.valid = true;
    out_.blk = blk;
    out_.pc = pc;
    out_.write = is_write;
    out_.hadSharedCopy = line && line->state == CacheState::Shared;
    out_.issued = eq_.now();
    out_.done = std::move(done);
    if (out_.hadSharedCopy)
        upgrades_.inc();

    Message req;
    req.type = is_write ? MsgType::GetX : MsgType::GetS;
    req.src = node_;
    req.dst = homes_.home(blk);
    req.addr = blk;
    req.requester = node_;
    // DSI versioning: report the version of our last-held copy, or
    // "no version" on a cold access.
    CacheLine *any = cache_.findAny(blk);
    req.version = any ? any->version : noVersion;
    Tick delay = params_.ctrlOverhead +
                 (req.dst != node_ ? params_.remoteLookup : 0);
    send(req, delay);
}

void
CacheController::receive(const Message &msg)
{
    switch (msg.type) {
      case MsgType::DataS:
      case MsgType::DataX:
        handleData(msg);
        break;
      case MsgType::Inv:
      case MsgType::WbReq:
        handleInvOrWbReq(msg);
        break;
      default:
        assert(false && "unexpected message at cache controller");
    }
}

void
CacheController::handleData(const Message &msg)
{
    assert(out_.valid && out_.blk == msg.addr &&
           "data reply without a matching outstanding request");

    Addr blk = msg.addr;
    if (msg.verification == Verification::Premature) {
        predMispredicted_.inc();
        sched_.tracer().instant(obs::Cat::Predictor, node_, "mispredict",
                                eq_.now(), blk);
        if (pred_)
            pred_->onVerification(blk, /*premature=*/true);
    }

    CacheState st = msg.type == MsgType::DataX ? CacheState::Exclusive
                                               : CacheState::Shared;
    auto victim = cache_.insert(blk, st);
    CacheLine *line = cache_.find(blk);
    line->version = msg.version;
    if (victim) {
        Message ev;
        ev.type = victim->state == CacheState::Exclusive ? MsgType::EvictX
                                                         : MsgType::EvictS;
        ev.src = node_;
        ev.dst = homes_.home(victim->addr);
        ev.addr = victim->addr;
        send(ev, params_.ctrlOverhead);
    }
    if (pred_)
        pred_->onFillInfo(blk, FillInfo{msg.dsiCandidate});

    bool fill = !out_.hadSharedCopy;
    Pc pc = out_.pc;
    bool write = out_.write;
    Tick lat = eq_.now() - out_.issued + params_.ctrlOverhead;
    AccessDone done = std::move(out_.done);
    out_ = Outstanding{};
    missLatency_.sample(double(lat));

    eq_.scheduleIn(params_.ctrlOverhead,
                   [this, blk, pc, write, fill, done = std::move(done),
                    lat] {
                       afterTouch(blk, pc, write, fill);
                       done(lat, /*was_miss=*/true);
                   });
}

void
CacheController::handleInvOrWbReq(const Message &msg)
{
    Addr blk = msg.addr;
    CacheLine *line = cache_.find(blk);

    Message reply;
    reply.src = node_;
    reply.dst = msg.src;
    reply.addr = blk;
    reply.type = MsgType::InvAck;

    if (line) {
        if (msg.type == MsgType::WbReq &&
            line->state == CacheState::Exclusive) {
            reply.type = MsgType::WbData;
        }
        externalInvalidation(blk);
    }
    // A missing line means our SelfInv/Evict is already on its way home
    // (FIFO channels deliver it first); the plain ack lets the directory
    // reconcile.
    send(reply, params_.ctrlOverhead);
}

void
CacheController::externalInvalidation(Addr blk)
{
    invalidationsSeen_.inc();
    if (mode_ == PredictorMode::Passive && pendingPred_.count(blk)) {
        // The predictor had called this trace's last touch: correct.
        predPredicted_.inc();
        sched_.tracer().instant(obs::Cat::Predictor, node_, "verify",
                                eq_.now(), blk);
        pendingPred_.erase(blk);
        if (pred_)
            pred_->onVerification(blk, /*premature=*/false);
    } else {
        predNotPredicted_.inc();
        if (pred_)
            pred_->onInvalidation(blk);
    }
    cache_.invalidate(blk);
}

void
CacheController::afterTouch(Addr blk, Pc pc, bool is_write, bool fill)
{
    if (!pred_ || mode_ == PredictorMode::Off)
        return;

    if (mode_ == PredictorMode::Passive && pendingPred_.count(blk)) {
        // We touched a block the predictor had declared dead: in an
        // active system this touch would have missed on a prematurely
        // self-invalidated block. Score the misprediction and restart
        // the trace as the re-fetch would have.
        predMispredicted_.inc();
        sched_.tracer().instant(obs::Cat::Predictor, node_, "mispredict",
                                eq_.now(), blk);
        pendingPred_.erase(blk);
        pred_->onVerification(blk, /*premature=*/true);
        fill = true;
    }

    bool last_touch = pred_->onTouch(blk, pc, is_write, fill);
    if (!last_touch)
        return;
    sched_.tracer().instant(obs::Cat::Predictor, node_, "predict", eq_.now(),
                            blk);
    if (mode_ == PredictorMode::Passive) {
        pendingPred_.insert(blk);
    } else {
        selfInvalidate(blk);
    }
}

void
CacheController::requestSelfInvalidate(Addr blk)
{
    CacheLine *line = cache_.find(blk);
    if (!line)
        return;
    if (out_.valid && out_.blk == blk)
        return; // a demand transaction for this block is in flight
    sched_.tracer().instant(obs::Cat::Predictor, node_, "predict", eq_.now(),
                            blk);
    if (mode_ == PredictorMode::Passive) {
        pendingPred_.insert(blk);
    } else if (mode_ == PredictorMode::Active) {
        selfInvalidate(blk);
    }
}

void
CacheController::selfInvalidate(Addr blk)
{
    CacheLine *line = cache_.find(blk);
    if (!line)
        return;
    Message msg;
    msg.type = line->state == CacheState::Exclusive ? MsgType::SelfInvX
                                                    : MsgType::SelfInvS;
    msg.src = node_;
    msg.dst = homes_.home(blk);
    msg.addr = blk;
    cache_.invalidate(blk);
    selfInvsIssued_.inc();
    sched_.tracer().instant(obs::Cat::Predictor, node_, "self-invalidate",
                            eq_.now(), blk);
    send(msg, params_.ctrlOverhead);
}

void
CacheController::syncBoundary()
{
    if (pred_ && mode_ != PredictorMode::Off)
        pred_->onSyncBoundary();
}

void
CacheController::onDirVerify(Addr blk, bool premature, bool timely)
{
    (void)timely;
    if (mode_ != PredictorMode::Active)
        return;
    if (!premature) {
        // A correct self-invalidation stands in for the invalidation the
        // directory no longer needs to send.
        predPredicted_.inc();
        sched_.tracer().instant(obs::Cat::Predictor, node_, "verify",
                                eq_.now(), blk);
        invalidationsSeen_.inc();
        if (pred_)
            pred_->onVerification(blk, /*premature=*/false);
    }
}

void
CacheController::send(Message msg, Tick delay)
{
    eq_.scheduleIn(delay, [this, msg] { net_.send(msg); });
}

} // namespace ltp
