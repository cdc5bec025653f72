/**
 * @file
 * The predictor-side interface between a node's cache controller and any
 * self-invalidation predictor (LTP per-block, LTP global, Last-PC, DSI,
 * or the null predictor of the base system).
 *
 * The cache controller reports every completed touch to a coherently
 * cached block, every external invalidation, and every verification
 * outcome fed back by the directory. The predictor answers "is this the
 * last touch?" either synchronously (return value of onTouch) or, for
 * DSI-style schemes, asynchronously via the SelfInvalidationPort at a
 * synchronization boundary.
 */

#ifndef LTP_PREDICTOR_INVALIDATION_PREDICTOR_HH
#define LTP_PREDICTOR_INVALIDATION_PREDICTOR_HH

#include <cstdint>
#include <optional>
#include <string>

#include "predictor/storage.hh"
#include "sim/types.hh"

namespace ltp
{

/** Which self-invalidation scheme a run uses. */
enum class PredictorKind
{
    Base,        //!< no self-invalidation
    Dsi,         //!< Lebeck & Wood versioning + sync-boundary flush
    LastPc,      //!< single-instruction correlation
    LtpPerBlock, //!< trace-based, per-block tables (the paper's base LTP)
    LtpGlobal,   //!< trace-based, global table
};

/** Short scheme name for reports ("base", "dsi", "last-pc", ...). */
inline const char *
predictorKindName(PredictorKind k)
{
    switch (k) {
      case PredictorKind::Base: return "base";
      case PredictorKind::Dsi: return "dsi";
      case PredictorKind::LastPc: return "last-pc";
      case PredictorKind::LtpPerBlock: return "ltp";
      case PredictorKind::LtpGlobal: return "ltp-global";
    }
    return "?";
}

/**
 * Callback surface a predictor uses to request self-invalidations that
 * are not tied to the current touch (DSI invalidates its whole candidate
 * list when the program crosses a synchronization boundary).
 */
class SelfInvalidationPort
{
  public:
    virtual ~SelfInvalidationPort() = default;

    /** Ask the owning cache controller to self-invalidate @p blk. */
    virtual void requestSelfInvalidate(Addr blk) = 0;
};

/** Per-block metadata arriving with a data reply. */
struct FillInfo
{
    /** DSI versioning verdict: block is actively shared. */
    bool dsiCandidate = false;
};

/**
 * Abstract self-invalidation predictor. One instance per node.
 *
 * All addresses passed in are block-aligned.
 */
class InvalidationPredictor
{
  public:
    virtual ~InvalidationPredictor() = default;

    /** Wire up the port used for asynchronous self-invalidation. */
    void setPort(SelfInvalidationPort *port) { port_ = port; }

    /**
     * A touch (load or store) to coherently cached block @p blk by the
     * instruction at @p pc has completed.
     *
     * @param fill true when this access filled the block (miss), i.e.,
     *             this touch begins a new trace.
     * @return true to predict this touch is the LAST touch before the
     *         next invalidation (the controller may then self-invalidate).
     */
    virtual bool onTouch(Addr blk, Pc pc, bool is_write, bool fill) = 0;

    /**
     * An external invalidation (Inv or WbReq) removed @p blk while it was
     * resident: the current trace ended without a last-touch prediction.
     * This is the predictor's learning event.
     */
    virtual void onInvalidation(Addr blk) = 0;

    /**
     * The directory verified an earlier self-invalidation of @p blk.
     * @param premature true if we self-invalidated too early (the next
     *        request for the block came from this same node).
     */
    virtual void onVerification(Addr blk, bool premature) = 0;

    /** Metadata that arrived with a data reply filling @p blk. */
    virtual void onFillInfo(Addr blk, const FillInfo &info)
    {
        (void)blk;
        (void)info;
    }

    /**
     * The processor crossed a synchronization boundary (lock acquire or
     * release, or barrier). Only DSI reacts to this; LTP is transparent.
     */
    virtual void onSyncBoundary() {}

    /** Short predictor name for reports. */
    virtual std::string name() const = 0;

    /** Storage-cost summary (Table 3); nullopt for table-less schemes. */
    virtual std::optional<StorageStats>
    storage() const
    {
        return std::nullopt;
    }

  protected:
    SelfInvalidationPort *port_ = nullptr;
};

/** The base system: never predicts anything. */
class NullPredictor : public InvalidationPredictor
{
  public:
    bool
    onTouch(Addr, Pc, bool, bool) override
    {
        return false;
    }

    void onInvalidation(Addr) override {}
    void onVerification(Addr, bool) override {}
    std::string name() const override { return "base"; }
};

} // namespace ltp

#endif // LTP_PREDICTOR_INVALIDATION_PREDICTOR_HH
