/**
 * @file
 * Behavioural tests for the Last-Touch Predictors, including the four
 * Figure 3 scenarios from the paper (simple trace, procedure reuse,
 * loop reuse, conditional) and the subtrace-aliasing cases.
 */

#include <gtest/gtest.h>

#include <vector>

#include "predictor/ltp_per_block.hh"

namespace ltp
{
namespace
{

constexpr Addr blkX = 0x100;
constexpr Addr blkY = 0x200;
constexpr Pc pcI = 0x1000, pcJ = 0x1004, pcK = 0x1008;

/** Feed one complete trace (fill + touches) and end it. Returns the
 *  index of the first touch predicted as a last touch (or -1). */
template <typename Pred>
int
runTrace(Pred &p, Addr blk, const std::vector<Pc> &pcs)
{
    int predicted_at = -1;
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        bool last = p.onTouch(blk, pcs[i], false, i == 0);
        if (last && predicted_at < 0)
            predicted_at = int(i);
    }
    p.onInvalidation(blk);
    return predicted_at;
}

TEST(LtpPerBlock, NoPredictionWhileTraining)
{
    LtpPerBlock p;
    // First two occurrences only train (counter not yet saturated).
    EXPECT_EQ(runTrace(p, blkX, {pcI, pcJ, pcK}), -1);
    EXPECT_EQ(runTrace(p, blkX, {pcI, pcJ, pcK}), -1);
}

TEST(LtpPerBlock, PredictsRepeatedTraceAtLastTouch)
{
    LtpPerBlock p;
    runTrace(p, blkX, {pcI, pcJ, pcK});
    runTrace(p, blkX, {pcI, pcJ, pcK});
    // Third time: counter saturated; the prediction must fire exactly
    // at the last touch (Figure 3a).
    EXPECT_EQ(runTrace(p, blkX, {pcI, pcJ, pcK}), 2);
}

TEST(LtpPerBlock, ProcedureReuseDistinguished)
{
    // Figure 3(b): foo() called twice; the last touch is pcJ's second
    // execution. The trace {pcI, pcJ, pcJ} identifies it.
    LtpPerBlock p;
    for (int i = 0; i < 2; ++i)
        runTrace(p, blkX, {pcI, pcJ, pcJ});
    EXPECT_EQ(runTrace(p, blkX, {pcI, pcJ, pcJ}), 2);
}

TEST(LtpPerBlock, LoopReuseDistinguished)
{
    // Figure 3(c): the loop instruction pcJ touches the block twice.
    LtpPerBlock p;
    for (int i = 0; i < 2; ++i)
        runTrace(p, blkX, {pcI, pcJ, pcJ, pcJ});
    int at = runTrace(p, blkX, {pcI, pcJ, pcJ, pcJ});
    EXPECT_EQ(at, 3);
}

TEST(LtpPerBlock, ConditionalAlternationAliases)
{
    // Figure 3(d) + Section 3.1's red/black SOR remark: when the taken
    // path's trace {pcI, pcJ} alternates with the not-taken path's
    // {pcI, pcJ, pcK}, the short trace is a complete subtrace of the
    // long one starting at the same PC — "trace-based correlation will
    // result in a last-touch misprediction in every invocation of such
    // code". The long trace must fire prematurely at pcJ once the short
    // signature saturates.
    LtpPerBlock p;
    for (int i = 0; i < 3; ++i) {
        runTrace(p, blkX, {pcI, pcJ});
        runTrace(p, blkX, {pcI, pcJ, pcK});
    }
    EXPECT_EQ(runTrace(p, blkX, {pcI, pcJ, pcK}), 1);
}

TEST(LtpPerBlock, SubtraceAliasingMispredicts)
{
    // The red/black SOR case from Section 3.1: {pcI,pcJ} is a complete
    // subtrace of {pcI,pcJ,pcK} starting at the same PC.
    LtpPerBlock p;
    runTrace(p, blkX, {pcI, pcJ});
    runTrace(p, blkX, {pcI, pcJ});
    runTrace(p, blkX, {pcI, pcJ});
    // Now the long trace passes through the saturated short signature:
    int at = runTrace(p, blkX, {pcI, pcJ, pcK});
    EXPECT_EQ(at, 1); // premature prediction at pcJ
}

TEST(LtpPerBlock, PrematureVerificationClearsConfidence)
{
    LtpPerBlock p;
    runTrace(p, blkX, {pcI, pcJ});
    runTrace(p, blkX, {pcI, pcJ});
    runTrace(p, blkX, {pcI, pcJ});
    // Trigger the premature prediction and report it.
    EXPECT_FALSE(p.onTouch(blkX, pcI, false, true));
    EXPECT_TRUE(p.onTouch(blkX, pcJ, false, false));
    p.onVerification(blkX, /*premature=*/true);
    // The {pcI,pcJ} signature must now be silenced.
    EXPECT_FALSE(p.onTouch(blkX, pcI, false, true));
    EXPECT_FALSE(p.onTouch(blkX, pcJ, false, false));
}

TEST(LtpPerBlock, CorrectVerificationKeepsPredicting)
{
    LtpPerBlock p;
    runTrace(p, blkX, {pcI, pcJ});
    runTrace(p, blkX, {pcI, pcJ});
    for (int i = 0; i < 5; ++i) {
        EXPECT_FALSE(p.onTouch(blkX, pcI, false, true));
        EXPECT_TRUE(p.onTouch(blkX, pcJ, false, false)) << i;
        p.onVerification(blkX, /*premature=*/false);
    }
}

TEST(LtpPerBlock, BlocksAreIndependent)
{
    LtpPerBlock p;
    for (int i = 0; i < 3; ++i)
        runTrace(p, blkX, {pcI, pcJ});
    // blkY never saw any trace: no prediction even on the same PCs.
    EXPECT_FALSE(p.onTouch(blkY, pcI, false, true));
    EXPECT_FALSE(p.onTouch(blkY, pcJ, false, false));
}

TEST(LtpPerBlock, TableGrowsOnePerDistinctSignature)
{
    LtpPerBlock p;
    runTrace(p, blkX, {pcI});
    runTrace(p, blkX, {pcI, pcJ});
    runTrace(p, blkX, {pcI, pcJ, pcK});
    runTrace(p, blkX, {pcI}); // repeat: no new entry
    EXPECT_EQ(p.storage()->totalEntries, 3u);
}

TEST(LtpPerBlock, StorageCountsActiveBlocksOnly)
{
    LtpPerBlock p;
    runTrace(p, blkX, {pcI});
    p.onTouch(blkY, pcI, false, true); // trace never completes
    auto s = p.storage();
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->activeBlocks, 1u);
    EXPECT_EQ(s->totalEntries, 1u);
    EXPECT_EQ(s->sigBits, 30u);
}

TEST(LtpPerBlock, StorageBytesFormula)
{
    StorageStats s;
    s.sigBits = 13;
    s.activeBlocks = 10;
    s.totalEntries = 28; // 2.8 entries per block
    // 13 + 2.8 * (13 + 2) = 55 bits = 6.875 bytes (the paper's ~7 B).
    EXPECT_NEAR(s.bytesPerBlock(), 6.875, 1e-9);
}

TEST(LtpGlobal, SharesSignaturesAcrossBlocks)
{
    // The PAg upside: block Y benefits from block X's training.
    LastTouchPredictor p(PredictorKind::LtpGlobal);
    runTrace(p, blkX, {pcI, pcJ});
    runTrace(p, blkX, {pcI, pcJ});
    runTrace(p, blkX, {pcI, pcJ});
    EXPECT_FALSE(p.onTouch(blkY, pcI, false, true));
    EXPECT_TRUE(p.onTouch(blkY, pcJ, false, false));
}

TEST(LtpGlobal, CrossBlockSubtraceAliasing)
{
    // Section 5.3: block X's complete trace {pcI} is a prefix of block
    // Y's trace {pcI, pcJ} — the global table mispredicts on Y.
    LastTouchPredictor p(PredictorKind::LtpGlobal);
    runTrace(p, blkX, {pcI});
    runTrace(p, blkX, {pcI});
    runTrace(p, blkX, {pcI});
    EXPECT_TRUE(p.onTouch(blkY, pcI, false, true)) // premature on Y
        << "global table should alias X's trace onto Y";
}

TEST(LtpGlobal, PerBlockDoesNotAliasSameCase)
{
    LtpPerBlock p;
    runTrace(p, blkX, {pcI});
    runTrace(p, blkX, {pcI});
    runTrace(p, blkX, {pcI});
    EXPECT_FALSE(p.onTouch(blkY, pcI, false, true));
}

TEST(LtpGlobal, SingleTableEntryForCommonPattern)
{
    LastTouchPredictor p(PredictorKind::LtpGlobal);
    for (Addr blk = 0; blk < 32 * 20; blk += 32) {
        p.onTouch(blk, pcI, false, true);
        p.onInvalidation(blk);
    }
    auto s = p.storage();
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->totalEntries, 1u);
    EXPECT_EQ(s->activeBlocks, 20u);
    EXPECT_LT(s->entriesPerBlock(), 1.0);
}

TEST(LtpGlobal, StorageCountsBlocksActivatedByVerification)
{
    // Block Y predicts from X's signature and is verified without ever
    // being invalidated: it still counts in Table 3's divisor.
    LastTouchPredictor p(PredictorKind::LtpGlobal);
    for (int i = 0; i < 3; ++i)
        runTrace(p, blkX, {pcI, pcJ});
    EXPECT_FALSE(p.onTouch(blkY, pcI, false, true));
    EXPECT_TRUE(p.onTouch(blkY, pcJ, false, false));
    p.onVerification(blkY, /*premature=*/false);
    auto s = p.storage();
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->activeBlocks, 2u);
    EXPECT_EQ(s->totalEntries, 1u);
    EXPECT_EQ(s->sigBits, 30u);
}

TEST(LastPc, PredictsUniqueLastPc)
{
    LastTouchPredictor p(PredictorKind::LastPc);
    runTrace(p, blkX, {pcI, pcJ, pcK});
    runTrace(p, blkX, {pcI, pcJ, pcK});
    EXPECT_EQ(runTrace(p, blkX, {pcI, pcJ, pcK}), 2);
}

TEST(LastPc, LoopReuseDefeatsIt)
{
    // Section 3.1: when the last-touch PC also appears mid-trace, the
    // single-PC predictor fires prematurely...
    LastTouchPredictor p(PredictorKind::LastPc);
    runTrace(p, blkX, {pcI, pcJ, pcJ});
    runTrace(p, blkX, {pcI, pcJ, pcJ});
    int at = runTrace(p, blkX, {pcI, pcJ, pcJ});
    EXPECT_EQ(at, 1);
}

TEST(LastPc, TrainingAndPenaltyOscillation)
{
    // ...and the counter clear then silences it until retrained —
    // the mechanism that keeps Last-PC's misprediction rate low while
    // its coverage collapses (moldyn in the paper).
    LastTouchPredictor p(PredictorKind::LastPc);
    runTrace(p, blkX, {pcI, pcJ, pcJ});
    runTrace(p, blkX, {pcI, pcJ, pcJ});
    EXPECT_FALSE(p.onTouch(blkX, pcI, false, true));
    EXPECT_TRUE(p.onTouch(blkX, pcJ, false, false)); // premature
    p.onVerification(blkX, true);
    EXPECT_FALSE(p.onTouch(blkX, pcJ, false, false)); // silenced
    p.onInvalidation(blkX);
}

TEST(LastPc, StorageReportsFullPcWidth)
{
    // Last-PC stores whole PCs whatever the LTP signature width is.
    LtpParams params;
    params.sigBits = 13;
    LastTouchPredictor p(PredictorKind::LastPc, params);
    runTrace(p, blkX, {pcI, pcJ});
    runTrace(p, blkX, {pcI, pcK});
    p.onTouch(blkY, pcI, false, true); // trace never completes
    auto s = p.storage();
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->sigBits, 30u);
    EXPECT_EQ(s->activeBlocks, 1u);
    EXPECT_EQ(s->totalEntries, 2u);
}

TEST(LastPc, ComparesWholePcsAtAnySigBits)
{
    // The signature width applies to LTP traces only: a one-bit LTP
    // signature would alias pcI and pcJ, Last-PC never does.
    LtpParams params;
    params.sigBits = 1;
    LastTouchPredictor p(PredictorKind::LastPc, params);
    for (int i = 0; i < 3; ++i)
        runTrace(p, blkX, {pcI});
    EXPECT_FALSE(p.onTouch(blkX, pcJ, false, true));
    EXPECT_TRUE(p.onTouch(blkX, pcI, false, false));
}

TEST(LastPc, TraceBasedBeatsItOnLoop)
{
    // The paper's core claim, in miniature: same reference stream, LTP
    // predicts the true last touch, Last-PC cannot.
    LtpPerBlock ltp;
    LastTouchPredictor lpc(PredictorKind::LastPc);
    const std::vector<Pc> trace = {pcI, pcJ, pcJ, pcJ};
    for (int i = 0; i < 3; ++i) {
        runTrace(ltp, blkX, trace);
        runTrace(lpc, blkX, trace);
    }
    EXPECT_EQ(runTrace(ltp, blkX, trace), 3);
    EXPECT_NE(runTrace(lpc, blkX, trace), 3);
}

} // namespace
} // namespace ltp
