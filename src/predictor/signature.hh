/**
 * @file
 * Trace signatures (Section 3.2).
 *
 * A trace — the sequence of instructions touching a block from its
 * coherence miss until its invalidation — is compressed into a small
 * fixed-width encoding called a signature. The paper uses *truncated
 * addition*: the signature is the running sum of instruction PCs,
 * truncated to a configurable number of bits (30 bits identifies a
 * single PC exactly; Section 5.2 shows 13 bits suffice in practice).
 */

#ifndef LTP_PREDICTOR_SIGNATURE_HH
#define LTP_PREDICTOR_SIGNATURE_HH

#include <cassert>
#include <cstdint>

#include "sim/types.hh"

namespace ltp
{

/**
 * Trace-encoding function (Section 3.2: "LTPs can use arbitrary
 * encoding functions trading off accuracy, cost, and performance").
 */
enum class SigEncoding : std::uint8_t
{
    /** The paper's choice: commutative, order-insensitive. */
    TruncatedAdd,
    /**
     * Rotate-and-XOR: order-SENSITIVE (distinguishes {A,B} from {B,A}
     * and, unlike truncated addition, two different traces of equal PC
     * multisets), at the same storage cost.
     */
    RotateXor,
};

/** A compressed trace signature. */
class Signature
{
  public:
    Signature() = default;

    /**
     * Scramble a PC before adding it into the signature.
     *
     * The paper adds raw instruction addresses, whose natural entropy
     * spreads across the truncated sum. Our workload kernels use small,
     * word-aligned synthetic PC constants, which would make the low
     * signature bits artificially regular — so we pass each PC through
     * a 64-bit finalizer first. The encoding is still truncated
     * addition (commutative, order-insensitive) over per-instruction
     * constants, preserving the paper's aliasing behaviour.
     */
    static std::uint64_t
    mix(Pc pc)
    {
        std::uint64_t z = pc + 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Start a new trace at the coherence-missing instruction @p pc. */
    static Signature
    init(Pc pc, unsigned bits,
         SigEncoding enc = SigEncoding::TruncatedAdd)
    {
        assert(bits >= 1 && bits <= 64);
        Signature s;
        s.bits_ = bits;
        s.enc_ = enc;
        s.value_ = mix(pc) & mask(bits);
        return s;
    }

    /** Extend the trace with the next touching instruction @p pc. */
    Signature
    extend(Pc pc) const
    {
        Signature s;
        s.bits_ = bits_;
        s.enc_ = enc_;
        if (enc_ == SigEncoding::TruncatedAdd) {
            s.value_ = (value_ + mix(pc)) & mask(bits_);
        } else {
            std::uint64_t rot =
                ((value_ << 1) | (value_ >> (bits_ - 1))) & mask(bits_);
            s.value_ = (rot ^ mix(pc)) & mask(bits_);
        }
        return s;
    }

    std::uint64_t value() const { return value_; }
    unsigned bits() const { return bits_; }
    SigEncoding encoding() const { return enc_; }

    bool
    operator==(const Signature &o) const
    {
        return value_ == o.value_ && bits_ == o.bits_;
    }

    bool operator!=(const Signature &o) const { return !(*this == o); }

  private:
    static constexpr std::uint64_t
    mask(unsigned bits)
    {
        return bits >= 64 ? ~std::uint64_t(0)
                          : ((std::uint64_t(1) << bits) - 1);
    }

    std::uint64_t value_ = 0;
    unsigned bits_ = 0;
    SigEncoding enc_ = SigEncoding::TruncatedAdd;
};

/**
 * A saturating confidence counter (Section 4 uses 2-bit counters to
 * filter low-accuracy last-touch signatures).
 *
 * Strengthened by +1 whenever the signature is observed to end a trace
 * (or a prediction verifies correct); predictions are made only when
 * the counter is saturated. A premature self-invalidation clears the
 * counter — the strong penalty is what keeps signature aliases (e.g., a
 * mid-trace prefix that matches another block's full trace) from
 * mispredicting over and over, and is how Last-PC's misprediction rate
 * stays near 2% even where its coverage collapses.
 */
class ConfidenceCounter
{
  public:
    /** A two-bit counter saturates at 3. */
    static constexpr unsigned max = 3;

    /** A newly learned signature starts one step below saturation. */
    explicit ConfidenceCounter(unsigned initial = 2) : value_(initial)
    {
        assert(initial <= max);
    }

    void
    strengthen()
    {
        if (value_ < max)
            ++value_;
    }

    /** Penalize a premature prediction: clear the counter. */
    void weaken() { value_ = 0; }

    unsigned value() const { return value_; }
    bool atLeast(unsigned threshold) const { return value_ >= threshold; }
    bool saturated() const { return value_ >= max; }

  private:
    std::uint8_t value_;
};

} // namespace ltp

#endif // LTP_PREDICTOR_SIGNATURE_HH
