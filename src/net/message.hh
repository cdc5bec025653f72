/**
 * @file
 * Coherence-protocol message definition.
 *
 * The message vocabulary of the full-map write-invalidate protocol
 * (Section 2 of the paper) plus the self-invalidation messages Section 4
 * adds. The network treats messages opaquely except for their size class
 * (control vs. data-carrying).
 */

#ifndef LTP_NET_MESSAGE_HH
#define LTP_NET_MESSAGE_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "sim/types.hh"

namespace ltp
{

/** Every message type exchanged between cache and directory controllers. */
enum class MsgType : std::uint8_t
{
    // Requests: cache -> home directory.
    GetS,       //!< read request
    GetX,       //!< write (exclusive) request
    // Directory -> remote cache.
    Inv,        //!< invalidate a read-only copy
    WbReq,      //!< invalidate + write back an exclusive copy
    // Remote cache -> directory.
    InvAck,     //!< acknowledges Inv (or WbReq when no copy remained)
    WbData,     //!< dirty data written back in answer to WbReq
    // Directory -> requester.
    DataS,      //!< read-only data reply
    DataX,      //!< writable data reply
    // Self-invalidation (Section 4).
    SelfInvS,   //!< cache drops a Shared copy and notifies home
    SelfInvX,   //!< cache drops an Exclusive copy, carries the data home
    // Never sent: the unbounded network cache never evicts. Kept only
    // because bench/ltpbench/ltpbench.cc still names them; delete them
    // with that file's next change.
    EvictS,
    EvictX,
};

/** True for message types that carry a full cache block of data. */
constexpr bool
carriesData(MsgType t)
{
    switch (t) {
      case MsgType::WbData:
      case MsgType::DataS:
      case MsgType::DataX:
      case MsgType::SelfInvX:
        return true;
      default:
        return false;
    }
}

/**
 * True for message types a node's home directory receives: requests,
 * recall answers and self-invalidations. Every other type goes to the
 * node's cache controller. (Not `toDirectory`: ltpbench keeps a
 * file-local copy by that name, which argument-dependent lookup would
 * make ambiguous.)
 */
constexpr bool
routesToDirectory(MsgType t)
{
    switch (t) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::InvAck:
      case MsgType::WbData:
      case MsgType::SelfInvS:
      case MsgType::SelfInvX:
        return true;
      default:
        return false;
    }
}

/**
 * Human-readable message-type name (tracer spans, describe(), tests).
 * Inline: the tracer spans evaluate it as an argument on every delivery
 * and directory transaction, armed or not.
 */
constexpr const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS: return "GetS";
      case MsgType::GetX: return "GetX";
      case MsgType::Inv: return "Inv";
      case MsgType::WbReq: return "WbReq";
      case MsgType::InvAck: return "InvAck";
      case MsgType::WbData: return "WbData";
      case MsgType::DataS: return "DataS";
      case MsgType::DataX: return "DataX";
      case MsgType::SelfInvS: return "SelfInvS";
      case MsgType::SelfInvX: return "SelfInvX";
      case MsgType::EvictS: return "EvictS";
      case MsgType::EvictX: return "EvictX";
    }
    return "?";
}

/**
 * Self-invalidation verification outcome piggybacked on data replies.
 * Correct outcomes reach the self-invalidating node through the
 * directory's verify hook instead (DirController::VerifyHook).
 */
enum class Verification : std::uint8_t
{
    None,      //!< nothing to report
    Premature, //!< the requester self-invalidated too early
};

/** A single protocol message in flight. */
struct Message
{
    MsgType type = MsgType::GetS;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    /** Block-aligned address the message concerns. */
    Addr addr = 0;
    /** Original requester (meaningful on Inv/WbReq fan-out). */
    NodeId requester = invalidNode;
    /** Per-(src, dst) injection sequence — a network-layer stamp written
     *  by the routed interconnect's ingress reorder buffer and opaque to
     *  the protocol (the p2p model leaves it zero). Sits in the padding
     *  after `requester` so messages stay 56 bytes. */
    std::uint32_t netSeq = 0;
    /** DSI write-version number (on data replies and requests). */
    std::uint64_t version = 0;
    /** DSI: reply marks the block as a self-invalidation candidate. */
    bool dsiCandidate = false;
    /** Verification feedback for the requester's predictor. */
    Verification verification = Verification::None;
    /** Dateline bits (network-layer stamp, like netSeq): bit d set once
     *  the message crossed dimension d's wrap link, switching its escape
     *  virtual channel. */
    std::uint8_t netVcFlags = 0;
    /** Tick at which the sender injected the message (for latency stats). */
    Tick injectedAt = 0;

    std::string describe() const;
};

// The size contract the netSeq/netVcFlags padding games maintain.
// Messages travel by value in the network's event captures, and the
// largest of those (a routed hop: this + link + VC + Message) fills
// SmallFunction's inline buffer exactly, so a larger Message fails
// that capture's SmallFunction::fitsInline static_assert.
static_assert(sizeof(Message) == 56, "Message grew past 56 bytes");
static_assert(std::is_trivially_copyable_v<Message>,
              "Message must stay a POD: every hop copies it");

} // namespace ltp

#endif // LTP_NET_MESSAGE_HH
