#include "predictor/ltp_per_block.hh"

#include <cassert>

namespace ltp
{

// Last-PC's one-PC trace is 64 bits wide: Signature::mix is a bijection,
// so two such traces match exactly when their PCs do.
LastTouchPredictor::LastTouchPredictor(PredictorKind kind, LtpParams params)
    : kind_(kind), params_(params),
      traceBits_(kind == PredictorKind::LastPc ? 64 : params.sigBits)
{
    assert(kind == PredictorKind::LtpPerBlock ||
           kind == PredictorKind::LtpGlobal ||
           kind == PredictorKind::LastPc);
}

ConfidenceCounter *
LastTouchPredictor::find(BlockState &b, std::uint64_t sig)
{
    if (kind_ == PredictorKind::LtpGlobal)
        return global_.find(sig);
    for (auto &e : b.table) {
        if (e.sig == sig)
            return &e.conf;
    }
    return nullptr;
}

bool
LastTouchPredictor::onTouch(Addr blk, Pc pc, bool is_write, bool fill)
{
    (void)is_write;
    BlockState &b = blocks_[blk];
    if (fill || !b.traceOpen || kind_ == PredictorKind::LastPc)
        b.cur = Signature::init(pc, traceBits_, params_.encoding);
    else
        b.cur = b.cur.extend(pc);
    b.traceOpen = true;

    ConfidenceCounter *conf = find(b, b.cur.value());
    if (conf && conf->atLeast(params_.confThreshold)) {
        b.predictedSig = b.cur.value();
        return true;
    }
    return false;
}

void
LastTouchPredictor::onInvalidation(Addr blk)
{
    BlockState *bp = blocks_.find(blk);
    if (!bp || !bp->traceOpen)
        return;
    BlockState &b = *bp;
    b.active = true;

    // The trace just completed: its current signature IS the last-touch
    // signature for this sharing phase. Learn it.
    std::uint64_t sig = b.cur.value();
    if (ConfidenceCounter *conf = find(b, sig))
        conf->strengthen();
    else if (kind_ == PredictorKind::LtpGlobal)
        global_.insert(sig, ConfidenceCounter());
    else
        b.table.push_back(TableEntry{sig, ConfidenceCounter()});
    b.traceOpen = false;
    b.predictedSig.reset();
}

void
LastTouchPredictor::onVerification(Addr blk, bool premature)
{
    BlockState *bp = blocks_.find(blk);
    if (!bp || !bp->predictedSig)
        return;
    BlockState &b = *bp;
    b.active = true;

    if (ConfidenceCounter *conf = find(b, *b.predictedSig)) {
        if (premature)
            conf->weaken();
        else
            conf->strengthen();
    }
    b.predictedSig.reset();
    // Either way the old trace is over: a correct self-invalidation ended
    // it; a premature one means the next touch misses and restarts it.
    b.traceOpen = false;
}

std::optional<StorageStats>
LastTouchPredictor::storage() const
{
    StorageStats s;
    // Last-PC's entries are whole PCs, charged at 30 bits.
    s.sigBits = kind_ == PredictorKind::LastPc ? 30 : params_.sigBits;
    // Each organization fills either the global table or the per-block
    // ones; the other stays empty.
    s.totalEntries = global_.size();
    for (const auto &[blk, b] : blocks_) {
        (void)blk;
        s.activeBlocks += b.active;
        s.totalEntries += b.table.size();
    }
    return s;
}

} // namespace ltp
