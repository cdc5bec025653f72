/**
 * @file
 * Deterministic, seeded fault injection (LTP_FAULT).
 *
 * Fault decisions use a counter-based per-site RNG: every decision is a
 * pure hash of (seed, site id, site-local counter), never a shared
 * mutable stream. The call site owns its counter (one per physical
 * link, per event queue, ...), and the simulation itself is
 * bit-deterministic, so each site sees the identical decision sequence
 * for every simThreads value — fault-injected runs stay shard-count
 * invariant exactly like fault-free ones.
 *
 * Spec grammar (semicolon-separated faults, comma-separated keys):
 *
 *   LTP_FAULT=kind[:key=value[,key=value...]][;kind2...]
 *
 *   link-stall[:p=0.01,extra=64,seed=1]
 *       At each link grant, with probability p, stretch the message's
 *       serialization by 1..extra extra ticks. Perturbs *virtual* time
 *       deterministically (results differ from fault-free runs but are
 *       identical across shard counts and reruns).
 *   spill-storm
 *       Every cross-shard mailbox post takes the FIFO spill path as if
 *       the SPSC ring were full. Host-side stress only — results are
 *       byte-identical to fault-free runs.
 *   cal-overflow[:period=1]
 *       Every period-th scheduled event is forced onto the calendar
 *       queue's far-future overflow heap and must migrate back into the
 *       bucket ring before it can fire. Host-side stress only — results
 *       are byte-identical to fault-free runs.
 *   barrier-wedge[:round=10,shard=1]
 *       The given shard wedges (stops arriving at the WindowBarrier)
 *       at the given window round until the run is aborted. Requires
 *       >= 2 shards; used to prove the watchdog fires.
 *
 * A FaultPlan is one run's faults: the engine (ParallelScheduler) owns
 * it, parsed from SystemParams::guard when the DsmSystem is built, and
 * each site reaches it through the scheduler (the event queues get
 * their cal-overflow period at construction). A kind left off costs
 * one load and a branch per site.
 */

#ifndef LTP_SIM_GUARD_FAULT_HH
#define LTP_SIM_GUARD_FAULT_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace ltp
{
namespace guard
{

enum class FaultKind : std::uint8_t
{
    LinkStall,
    SpillStorm,
    CalendarOverflow,
    BarrierWedge,
    NumKinds,
};

constexpr std::uint32_t
faultBit(FaultKind k)
{
    return 1u << unsigned(k);
}

/** Parsed LTP_FAULT spec: one run's fault decisions. */
struct FaultPlan
{
    std::uint32_t mask = 0; //!< faultBit() mask of enabled kinds

    // link-stall
    double linkStallP = 0.01;        //!< per-grant stall probability
    std::uint32_t linkStallExtra = 64; //!< max extra ticks per stall
    std::uint64_t linkStallSeed = 1;

    // cal-overflow
    std::uint64_t calOverflowPeriod = 1; //!< force every Nth schedule

    // barrier-wedge
    std::uint64_t wedgeRound = 10; //!< window round to wedge at
    unsigned wedgeShard = 1;       //!< shard that wedges

    bool on(FaultKind k) const { return mask & faultBit(k); }

    /**
     * link-stall decision for site @p site (link index) at its
     * @p counter-th grant: 0 = no stall, else extra serialization
     * ticks. Pure function of (seed, site, counter).
     */
    Tick linkStallTicks(std::uint64_t site, std::uint64_t counter) const;

    /** The event queues' cal-overflow period: 0 when the kind is off. */
    std::uint64_t
    calendarOverflowPeriod() const
    {
        return on(FaultKind::CalendarOverflow) ? calOverflowPeriod : 0;
    }

    /** barrier-wedge decision for @p shard entering window @p round. */
    bool
    wedgeHit(unsigned shard, std::uint64_t round) const
    {
        return shard == wedgeShard && round >= wedgeRound;
    }
};

/**
 * Parse an LTP_FAULT spec. Throws std::invalid_argument naming the
 * offending token on an unknown kind, unknown key, or bad value.
 */
FaultPlan parseFaultSpec(const std::string &spec);

} // namespace guard
} // namespace ltp

#endif // LTP_SIM_GUARD_FAULT_HH
