/** @file Unit tests for messages and the point-to-point network. */

#include <gtest/gtest.h>

#include <vector>

#include "net/network.hh"
#include "sim/par/parallel_scheduler.hh"

namespace ltp
{
namespace
{

TEST(Message, DataCarriers)
{
    EXPECT_TRUE(carriesData(MsgType::DataS));
    EXPECT_TRUE(carriesData(MsgType::DataX));
    EXPECT_TRUE(carriesData(MsgType::WbData));
    EXPECT_TRUE(carriesData(MsgType::SelfInvX));
    EXPECT_FALSE(carriesData(MsgType::GetS));
    EXPECT_FALSE(carriesData(MsgType::Inv));
    EXPECT_FALSE(carriesData(MsgType::InvAck));
    EXPECT_FALSE(carriesData(MsgType::SelfInvS));
}

TEST(Message, DescribeIsReadable)
{
    Message m;
    m.type = MsgType::GetX;
    m.src = 1;
    m.dst = 2;
    m.addr = 0x40;
    EXPECT_NE(m.describe().find("GetX"), std::string::npos);
    EXPECT_NE(m.describe().find("1->2"), std::string::npos);
}

class NetworkTest : public ::testing::Test
{
  protected:
    NetworkTest() : net_(sched_, 4, NetworkParams{})
    {
        for (NodeId n = 0; n < 4; ++n) {
            net_.setSink(n, [this, n](const Message &m) {
                arrivals_.push_back({n, m, eq_.now()});
            });
        }
    }

    Message
    msg(MsgType t, NodeId src, NodeId dst, Addr a = 0x100)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.addr = a;
        return m;
    }

    struct Arrival
    {
        NodeId node;
        Message msg;
        Tick when;
    };

    ParallelScheduler sched_{1, 4, networkLookahead(NetworkParams{}).ticks};
    EventQueue &eq_ = sched_.queueFor(0);
    StatGroup &stats_ = sched_.shardStats(0);
    Network net_;
    std::vector<Arrival> arrivals_;
};

TEST_F(NetworkTest, DeliversToCorrectSink)
{
    net_.send(msg(MsgType::GetS, 0, 2));
    sched_.runUntil(tickNever);
    ASSERT_EQ(arrivals_.size(), 1u);
    EXPECT_EQ(arrivals_[0].node, 2u);
    EXPECT_EQ(arrivals_[0].msg.type, MsgType::GetS);
}

TEST_F(NetworkTest, RemoteLatencyIsFlightPlusNiOccupancies)
{
    net_.send(msg(MsgType::GetS, 0, 1));
    sched_.runUntil(tickNever);
    // control: egress 4 + flight 80 + ingress 4
    EXPECT_EQ(arrivals_[0].when, 88u);
}

TEST_F(NetworkTest, DataMessagesSerializeLonger)
{
    net_.send(msg(MsgType::DataS, 0, 1));
    sched_.runUntil(tickNever);
    // data: egress 12 + flight 80 + ingress 12
    EXPECT_EQ(arrivals_[0].when, 104u);
}

TEST_F(NetworkTest, LocalDeliveryBypassesNetwork)
{
    net_.send(msg(MsgType::GetS, 3, 3));
    sched_.runUntil(tickNever);
    EXPECT_EQ(arrivals_[0].when, 1u);
}

TEST_F(NetworkTest, PairwiseFifoPreserved)
{
    // A data message (slow to serialize) followed by a control message
    // must still arrive in order on the same (src, dst) pair.
    net_.send(msg(MsgType::DataS, 0, 1, 0x100));
    net_.send(msg(MsgType::GetS, 0, 1, 0x200));
    sched_.runUntil(tickNever);
    ASSERT_EQ(arrivals_.size(), 2u);
    EXPECT_EQ(arrivals_[0].msg.addr, 0x100u);
    EXPECT_EQ(arrivals_[1].msg.addr, 0x200u);
    EXPECT_LT(arrivals_[0].when, arrivals_[1].when);
}

TEST_F(NetworkTest, EgressContentionQueues)
{
    // Two control messages from the same source: the second waits for
    // the first's egress occupancy.
    net_.send(msg(MsgType::GetS, 0, 1));
    net_.send(msg(MsgType::GetS, 0, 2));
    sched_.runUntil(tickNever);
    ASSERT_EQ(arrivals_.size(), 2u);
    EXPECT_EQ(arrivals_[0].when, 88u);
    EXPECT_EQ(arrivals_[1].when, 92u); // +4 egress occupancy
}

TEST_F(NetworkTest, IngressContentionQueues)
{
    // Messages from different sources converging on one node serialize
    // at its ingress NI.
    net_.send(msg(MsgType::GetS, 0, 3));
    net_.send(msg(MsgType::GetS, 1, 3));
    net_.send(msg(MsgType::GetS, 2, 3));
    sched_.runUntil(tickNever);
    ASSERT_EQ(arrivals_.size(), 3u);
    EXPECT_EQ(arrivals_[0].when, 88u);
    EXPECT_EQ(arrivals_[1].when, 92u);
    EXPECT_EQ(arrivals_[2].when, 96u);
}

TEST_F(NetworkTest, CountsMessages)
{
    net_.send(msg(MsgType::GetS, 0, 1));
    net_.send(msg(MsgType::DataS, 1, 0));
    sched_.runUntil(tickNever);
    EXPECT_EQ(stats_.counterValue("net.msgs"), 2u);
    EXPECT_EQ(stats_.counterValue("net.dataMsgs"), 1u);
}

TEST_F(NetworkTest, ManyMessagesAllDelivered)
{
    for (int i = 0; i < 100; ++i)
        net_.send(msg(MsgType::GetS, NodeId(i % 4), NodeId((i + 1) % 4)));
    sched_.runUntil(tickNever);
    EXPECT_EQ(arrivals_.size(), 100u);
}

} // namespace
} // namespace ltp
