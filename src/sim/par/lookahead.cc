#include "sim/par/lookahead.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ltp
{

ShardPlan
resolveShardPlan(const LookaheadInputs &in)
{
    // Barrier wakeups are posted barrierLatency ticks after the last
    // arrival, so they bound the window alongside the network.
    Tick window = std::min(in.netLookahead, in.barrierLatency);
    if (window < 1) {
        throw std::invalid_argument(
            "no cross-node lookahead: network " +
            std::to_string(in.netLookahead) + " ticks, barrier latency " +
            std::to_string(in.barrierLatency) +
            " ticks (both must be >= 1)");
    }

    // One requested thread still gets a window: a 1-shard run executes
    // without windows, but its post() checks the same lookahead, and it
    // anchors the shards {1, 2, 4, ...} bit-identity guarantee.
    ShardPlan plan;
    plan.shards = std::max(1u, std::min<unsigned>(in.requestedThreads,
                                                  in.numNodes));
    plan.window = window;
    return plan;
}

} // namespace ltp
