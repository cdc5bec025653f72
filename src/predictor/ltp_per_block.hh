/**
 * @file
 * The Last-Touch Predictor (Sections 3-4) in each table organization the
 * paper measures, plus LtpPerBlock, the paper's base configuration.
 *
 * Every organization has two levels. Level one is the current-signature
 * table: per block, the trace of touching instructions since the
 * block's coherence miss. Level two holds the previously observed
 * last-touch signatures, each guarded by a two-bit saturating confidence
 * counter (Section 4). A touch whose updated trace matches a confident
 * last-touch signature is predicted to be the last touch. One loop
 * serves every organization: onTouch extends the trace and predicts,
 * onInvalidation learns the completed trace's signature, and
 * onVerification strengthens a correct prediction's counter or clears a
 * premature one's. PredictorKind chooses where level two lives and what
 * level one keeps:
 *
 *  - LtpPerBlock (Figure 4, top; PAp-like): every block has its own
 *    last-touch table. The trace is a signature (Section 3.2): the PCs
 *    since the coherence miss, encoded by LtpParams::encoding
 *    (truncated addition, or the order-sensitive rotate-and-XOR) into
 *    LtpParams::sigBits bits.
 *  - LtpGlobal (Figure 4, bottom; PAg-like): the same traces, matched
 *    against one table shared by all blocks and keyed by signature
 *    value. It captures sharing patterns common to many blocks in few
 *    entries, but a block's complete trace that is a prefix of another
 *    block's trace fires prematurely there (Section 5.3's subtrace
 *    aliasing).
 *  - LastPc (Section 5.1's strawman): per-block tables whose trace is
 *    only the last touching PC. Instruction reuse within a sharing
 *    phase (loops, repeated procedure calls) defeats it (Section 3.1).
 */

#ifndef LTP_PREDICTOR_LTP_PER_BLOCK_HH
#define LTP_PREDICTOR_LTP_PER_BLOCK_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "predictor/invalidation_predictor.hh"
#include "predictor/signature.hh"
#include "sim/flat_map.hh"

namespace ltp
{

/** Shared configuration for the trace-based predictors. */
struct LtpParams
{
    /** Signature width in bits (paper: 30 = "Base", 13, 11, 6). */
    unsigned sigBits = 30;
    /** Counter value required before a match predicts (saturated). */
    unsigned confThreshold = ConfidenceCounter::max;
    /** Trace-encoding function (paper uses truncated addition). */
    SigEncoding encoding = SigEncoding::TruncatedAdd;
};

/** A last-touch predictor in the organization PredictorKind names. */
class LastTouchPredictor : public InvalidationPredictor
{
  public:
    /** @p kind is LtpPerBlock, LtpGlobal or LastPc. */
    explicit LastTouchPredictor(PredictorKind kind, LtpParams params = {});

    bool onTouch(Addr blk, Pc pc, bool is_write, bool fill) override;
    void onInvalidation(Addr blk) override;
    void onVerification(Addr blk, bool premature) override;
    std::string name() const override { return predictorKindName(kind_); }
    std::optional<StorageStats> storage() const override;

  private:
    struct TableEntry
    {
        std::uint64_t sig;
        ConfidenceCounter conf;
    };

    struct BlockState
    {
        /** The open trace (level one). */
        Signature cur;
        bool traceOpen = false;
        /** Completed a trace or had a prediction verified (Table 3). */
        bool active = false;
        /** Signature of the outstanding prediction (for verification). */
        std::optional<std::uint64_t> predictedSig;
        /** This block's last-touch table (per-block organizations). */
        std::vector<TableEntry> table;
    };

    /** The counter of last-touch signature @p sig as seen from @p b. */
    ConfidenceCounter *find(BlockState &b, std::uint64_t sig);

    PredictorKind kind_;
    LtpParams params_;
    /** Width of a trace: sigBits, or a whole PC for Last-PC. */
    unsigned traceBits_;
    FlatMap<Addr, BlockState> blocks_;
    /** The global organization's table: signature value -> confidence. */
    FlatMap<std::uint64_t, ConfidenceCounter> global_;
};

/** The paper's base LTP: per-block last-touch tables. */
class LtpPerBlock : public LastTouchPredictor
{
  public:
    explicit LtpPerBlock(LtpParams params = {})
        : LastTouchPredictor(PredictorKind::LtpPerBlock, params)
    {
    }
};

} // namespace ltp

#endif // LTP_PREDICTOR_LTP_PER_BLOCK_HH
