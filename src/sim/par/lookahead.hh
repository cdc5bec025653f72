/**
 * @file
 * Conservative-lookahead planning for the engine.
 *
 * A node-partitioned run is only correct when every cross-shard
 * interaction is separated from its cause by at least the window width
 * L (the classic conservative-DES precondition). The paper's machine
 * hands us that lookahead: the interconnect's minimum cross-node
 * latency (80-cycle point-to-point flight; serialization + wire +
 * router pipeline on every routed hop). resolveShardPlan() combines
 *
 *  - the network's exported lookahead (networkLookahead() in
 *    net/topo/interconnect.hh, passed in here as a plain number so the
 *    sim layer stays below net), and
 *  - the sync domain's barrier latency (barrier wakeups are the other
 *    cross-shard channel).
 *
 * Directory verification verdicts travel one network hop, never less
 * than the network's lookahead, so they need no input of their own.
 * Every supported configuration has at least one tick of lookahead and
 * runs the same engine at every shard count; a configuration without
 * one is rejected.
 */

#ifndef LTP_SIM_PAR_LOOKAHEAD_HH
#define LTP_SIM_PAR_LOOKAHEAD_HH

#include "sim/types.hh"

namespace ltp
{

/** Everything the planner needs, as plain numbers (no layering cycle). */
struct LookaheadInputs
{
    unsigned requestedThreads = 1;
    NodeId numNodes = 1;
    /** Minimum cross-node latency of the interconnect model. */
    Tick netLookahead = 0;
    /** SyncDomain release delay (barrier wakeups cross shards). */
    Tick barrierLatency = 0;
};

/** The engine configuration a run will actually use. */
struct ShardPlan
{
    unsigned shards = 1; //!< partitions/threads the engine runs
    Tick window = 0;     //!< conservative window width L

    /** True when more than one worker thread actually executes. */
    bool parallel() const { return shards > 1; }
};

/**
 * Decide shards and window width for a run.
 *
 * @throws std::invalid_argument when the network or barrier latency
 *         leaves no lookahead (a window of zero ticks).
 */
ShardPlan resolveShardPlan(const LookaheadInputs &in);

} // namespace ltp

#endif // LTP_SIM_PAR_LOOKAHEAD_HH
