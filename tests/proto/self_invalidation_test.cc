/**
 * @file
 * Self-invalidation scenario tests: SelfInvS / SelfInvX handling at the
 * directory, the Section 4 verification mask (correct vs premature),
 * timeliness classification, and the races with in-flight requests.
 *
 * Uses an "always predict last touch on demand" scripted predictor so
 * the tests control exactly when self-invalidations fire.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "mem/addr.hh"
#include "net/network.hh"
#include "predictor/invalidation_predictor.hh"
#include "proto/cache_controller.hh"
#include "proto/dir_controller.hh"
#include "sim/par/parallel_scheduler.hh"
#include "sim/stats.hh"

namespace ltp
{
namespace
{

constexpr NodeId kNodes = 4;
constexpr Addr blkB = 0x1000; // homed at node 1

/** Predictor scripted by the test: predicts when armed. */
class ScriptedPredictor : public InvalidationPredictor
{
  public:
    bool
    onTouch(Addr, Pc, bool, bool) override
    {
        bool fire = armed;
        armed = false;
        return fire;
    }

    void onInvalidation(Addr) override { ++invalidations; }

    void
    onVerification(Addr, bool premature) override
    {
        if (premature)
            ++prematures;
        else
            ++corrects;
    }

    std::string name() const override { return "scripted"; }

    bool armed = false;
    int invalidations = 0;
    int prematures = 0;
    int corrects = 0;
};

class SelfInvTest : public ::testing::Test
{
  protected:
    SelfInvTest() : homes_(4096, kNodes)
    {
        net_ = std::make_unique<Network>(sched_, kNodes, NetworkParams{});
        for (NodeId n = 0; n < kNodes; ++n) {
            preds_.push_back(std::make_unique<ScriptedPredictor>());
            caches_.push_back(std::make_unique<CacheController>(
                n, sched_, *net_, homes_, CacheParams{}, stats_));
            caches_[n]->setPredictor(preds_[n].get(),
                                     PredictorMode::Active);
            dirs_.push_back(std::make_unique<DirController>(
                n, sched_, *net_, DirParams{}, stats_));
        }
        for (NodeId n = 0; n < kNodes; ++n) {
            net_->setSink(n, [this](const Message &m) {
                if (hold_ && hold_(m))
                    held_.push_back(m);
                else
                    deliver(m);
            });
            dirs_[n]->setVerifyHook([this](NodeId who, Addr blk,
                                           bool premature, bool timely) {
                // onDirVerify forwards to the predictor, exactly as the
                // assembled system wires it.
                caches_[who]->onDirVerify(blk, premature, timely);
            });
        }
    }

    Tick
    access(NodeId n, Addr addr, bool write, bool predict_last = false)
    {
        preds_[n]->armed = predict_last;
        Tick latency = 0;
        bool done = false;
        caches_[n]->access(addr, 0x1000, write, [&](Tick lat, bool) {
            latency = lat;
            done = true;
        });
        sched_.runUntil(tickNever);
        EXPECT_TRUE(done);
        return latency;
    }

    /** Start an access from node @p n; @p done flips when it completes. */
    void
    issue(NodeId n, Addr addr, bool write, bool &done)
    {
        caches_[n]->access(addr, 0x1000, write,
                           [&done](Tick, bool) { done = true; });
    }

    /** Run tick by tick until @p blk's home locks it for a transaction,
     *  the tick at which the home sends its recall. */
    void
    runUntilLocked(Addr blk)
    {
        for (Tick t = eq_.now(); !dirEntry(blk).busy; ++t) {
            ASSERT_LT(t, Tick(10000)) << "the home never locked the block";
            sched_.runUntil(t);
        }
    }

    DirEntry &
    dirEntry(Addr blk)
    {
        return dirs_[homes_.home(blk)]->directory().entry(blk);
    }

    /** Hand @p m to its destination's directory or cache. */
    void
    deliver(const Message &m)
    {
        if (routesToDirectory(m.type))
            dirs_[m.dst]->receive(m);
        else
            caches_[m.dst]->receive(m);
    }

    /** Messages for which hold_ answers true are kept in held_, in
     *  arrival order, instead of being delivered; a test delivers them
     *  later, as a slow network would. */
    std::function<bool(const Message &)> hold_;
    std::vector<Message> held_;

    ParallelScheduler sched_{1, kNodes,
                             networkLookahead(NetworkParams{}).ticks};
    EventQueue &eq_ = sched_.queueFor(0);
    StatGroup &stats_ = sched_.shardStats(0);
    HomeMap homes_;
    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<ScriptedPredictor>> preds_;
    std::vector<std::unique_ptr<CacheController>> caches_;
    std::vector<std::unique_ptr<DirController>> dirs_;
};

TEST_F(SelfInvTest, SelfInvXReturnsBlockToIdle)
{
    access(0, blkB, true, /*predict_last=*/true);
    DirEntry &e = dirEntry(blkB);
    EXPECT_EQ(e.state, DirState::Idle);
    EXPECT_EQ(caches_[0]->cache().state(blkB), CacheState::Invalid);
    EXPECT_TRUE(e.inVerifMask(0));
}

TEST_F(SelfInvTest, SelfInvSRemovesSharer)
{
    access(0, blkB, false);
    access(2, blkB, false, /*predict_last=*/true);
    DirEntry &e = dirEntry(blkB);
    EXPECT_FALSE(e.isSharer(2));
    EXPECT_TRUE(e.isSharer(0));
    EXPECT_EQ(e.state, DirState::Shared);
    EXPECT_TRUE(e.inVerifMask(2));
}

TEST_F(SelfInvTest, LastSharerSelfInvGoesIdle)
{
    access(0, blkB, false, /*predict_last=*/true);
    EXPECT_EQ(dirEntry(blkB).state, DirState::Idle);
}

TEST_F(SelfInvTest, SelfInvalidatedWriteAvoidsThreeHop)
{
    // Without self-invalidation the read is a 3-hop transaction; after
    // a (timely) self-invalidation it is a plain 2-hop miss.
    access(0, blkB, true);
    Tick three_hop = access(2, blkB, false);

    access(3, blkB, true, /*predict_last=*/true);
    Tick two_hop = access(2, blkB, false);
    EXPECT_LT(two_hop + 100, three_hop);
}

TEST_F(SelfInvTest, CorrectWriterSelfInvVerifiedOnNextRead)
{
    access(0, blkB, true, /*predict_last=*/true);
    EXPECT_EQ(preds_[0]->corrects, 0);
    access(2, blkB, false); // another node reads: phase change
    EXPECT_EQ(preds_[0]->corrects, 1);
    EXPECT_EQ(preds_[0]->prematures, 0);
    EXPECT_FALSE(dirEntry(blkB).inVerifMask(0));
    EXPECT_EQ(stats_.counterValue("dir.selfInvTimelyCorrect"), 1u);
}

TEST_F(SelfInvTest, PrematureWhenSameNodeReturns)
{
    access(0, blkB, true, /*predict_last=*/true);
    access(0, blkB, false); // we come back ourselves: premature
    EXPECT_EQ(preds_[0]->prematures, 1);
    EXPECT_EQ(preds_[0]->corrects, 0);
    EXPECT_EQ(stats_.counterValue("dir.selfInvPremature"), 1u);
    EXPECT_EQ(stats_.counterValue("pred.mispredicted"), 1u);
}

TEST_F(SelfInvTest, ReadCopySelfInvConfirmedOnlyByWrite)
{
    access(0, blkB, false);
    access(2, blkB, false, /*predict_last=*/true);
    // Another READ does not prove the read-copy flush correct...
    access(3, blkB, false);
    EXPECT_EQ(preds_[2]->corrects, 0);
    EXPECT_TRUE(dirEntry(blkB).inVerifMask(2));
    // ...but a write (read -> write phase change) does.
    access(0, blkB, true);
    EXPECT_EQ(preds_[2]->corrects, 1);
    EXPECT_FALSE(dirEntry(blkB).inVerifMask(2));
}

TEST_F(SelfInvTest, CorrectSelfInvCountsAsPredictedInvalidation)
{
    access(0, blkB, true, /*predict_last=*/true);
    access(2, blkB, false);
    EXPECT_EQ(stats_.counterValue("pred.predicted"), 1u);
    EXPECT_GE(stats_.counterValue("pred.invalidations"), 1u);
}

TEST_F(SelfInvTest, UnpredictedInvalidationCountsNotPredicted)
{
    access(0, blkB, true);
    access(2, blkB, false); // pulls and invalidates node 0's copy
    EXPECT_EQ(stats_.counterValue("pred.notPredicted"), 1u);
    EXPECT_EQ(preds_[0]->invalidations, 1);
}

TEST_F(SelfInvTest, SelfInvIssuedCounterTracks)
{
    access(0, blkB, true, /*predict_last=*/true);
    EXPECT_EQ(stats_.counterValue("pred.selfInvsIssued"), 1u);
}

TEST_F(SelfInvTest, WriterVerifMaskSurvivesUntilPhaseChange)
{
    access(0, blkB, true, /*predict_last=*/true);
    // Directly re-write by another node: mask confirmed by GetX too.
    access(2, blkB, true);
    EXPECT_EQ(preds_[0]->corrects, 1);
}

TEST_F(SelfInvTest, StaleDropsStayZeroInCleanRuns)
{
    access(0, blkB, true, true);
    access(2, blkB, false, true);
    access(3, blkB, true, true);
    EXPECT_EQ(stats_.counterValue("dir.staleDrops"), 0u);
}

TEST_F(SelfInvTest, OwnerSelfInvCrossingWbReqServesAsWriteback)
{
    // Node 0 owns the block, and node 2's read makes the home send node
    // 0 a WbReq. Node 0 self-invalidates the moment the home locks the
    // block, so its SelfInvX and the WbReq cross in flight.
    access(0, blkB, true);
    bool done = false;
    issue(2, blkB, false, done);
    runUntilLocked(blkB);
    caches_[0]->requestSelfInvalidate(blkB);
    sched_.runUntil(tickNever);

    ASSERT_TRUE(done);
    DirEntry &e = dirEntry(blkB);
    EXPECT_EQ(e.state, DirState::Shared);
    EXPECT_EQ(e.sharers, std::uint64_t(1) << 2);
    EXPECT_EQ(e.owner, invalidNode);
    EXPECT_EQ(caches_[2]->cache().state(blkB), CacheState::Shared);
    EXPECT_EQ(caches_[0]->cache().state(blkB), CacheState::Invalid);
    // The SelfInvX stood in for the writeback: correct, but late...
    EXPECT_EQ(stats_.counterValue("dir.selfInvLateCorrect"), 1u);
    EXPECT_EQ(stats_.counterValue("dir.selfInvTimelyCorrect"), 0u);
    EXPECT_FALSE(e.inVerifMask(0));
    EXPECT_EQ(preds_[0]->corrects, 1);
    // ...and node 0's plain InvAck for the WbReq found no transaction.
    EXPECT_EQ(stats_.counterValue("dir.staleDrops"), 1u);
}

TEST_F(SelfInvTest, SharerSelfInvCrossingInvCountsAsItsAck)
{
    // Nodes 0 and 2 share the block, and node 3's write makes the home
    // send each an Inv. Node 2 self-invalidates the moment the home
    // locks the block, so its SelfInvS and the Inv cross in flight.
    access(0, blkB, false);
    access(2, blkB, false);
    bool done = false;
    issue(3, blkB, true, done);
    runUntilLocked(blkB);
    caches_[2]->requestSelfInvalidate(blkB);
    sched_.runUntil(tickNever);

    ASSERT_TRUE(done);
    DirEntry &e = dirEntry(blkB);
    EXPECT_EQ(e.state, DirState::Exclusive);
    EXPECT_EQ(e.owner, NodeId(3));
    EXPECT_EQ(e.sharers, 0u);
    EXPECT_EQ(caches_[3]->cache().state(blkB), CacheState::Exclusive);
    EXPECT_EQ(preds_[0]->invalidations, 1);
    // The SelfInvS counted as node 2's ack: correct, but late...
    EXPECT_EQ(stats_.counterValue("dir.selfInvLateCorrect"), 1u);
    EXPECT_EQ(stats_.counterValue("dir.selfInvTimelyCorrect"), 0u);
    EXPECT_FALSE(e.inVerifMask(2));
    EXPECT_EQ(preds_[2]->corrects, 1);
    // ...so node 2's plain InvAck, answering the Inv, was stale.
    EXPECT_EQ(stats_.counterValue("dir.staleDrops"), 1u);
}

TEST_F(SelfInvTest, StaleAckDoesNotCompleteALaterFanOut)
{
    // As above, node 2's SelfInvS crosses the home's Inv and counts as
    // its ack, so node 2's plain InvAck for that Inv is stale. Held back,
    // it lands while a later Inv fan-out waits for node 3 alone (node
    // 3's own ack held too). It must not answer for node 3.
    hold_ = [](const Message &m) {
        return m.type == MsgType::InvAck && m.src == 2;
    };
    access(0, blkB, false);
    access(2, blkB, false);
    bool done = false;
    issue(3, blkB, true, done);
    runUntilLocked(blkB);
    caches_[2]->requestSelfInvalidate(blkB);
    sched_.runUntil(tickNever);
    ASSERT_TRUE(done);
    ASSERT_EQ(held_.size(), 1u);

    // Node 3 owns the block; node 0 reads it, then node 3 reads it back.
    access(0, blkB, false);
    access(3, blkB, false);
    ASSERT_EQ(dirEntry(blkB).sharers,
              (std::uint64_t(1) << 0) | (std::uint64_t(1) << 3));

    // Node 0's write recalls node 3's copy alone.
    hold_ = [](const Message &m) { return m.type == MsgType::InvAck; };
    bool wrote = false;
    issue(0, blkB, true, wrote);
    runUntilLocked(blkB);
    deliver(held_[0]);
    sched_.runUntil(tickNever);
    EXPECT_FALSE(wrote) << "a stale ack completed the fan-out";
    EXPECT_TRUE(dirEntry(blkB).busy);
    EXPECT_EQ(stats_.counterValue("dir.staleDrops"), 1u);

    // Node 3's own ack completes it.
    ASSERT_EQ(held_.size(), 2u);
    EXPECT_EQ(held_[1].src, NodeId(3));
    deliver(held_[1]);
    sched_.runUntil(tickNever);
    EXPECT_TRUE(wrote);
    EXPECT_EQ(dirEntry(blkB).state, DirState::Exclusive);
    EXPECT_EQ(dirEntry(blkB).owner, NodeId(0));
    EXPECT_EQ(caches_[3]->cache().state(blkB), CacheState::Invalid);
    EXPECT_EQ(stats_.counterValue("dir.staleDrops"), 1u);
}

TEST_F(SelfInvTest, OwedAckDoesNotAnswerItsSendersNextRecall)
{
    // Node 2 self-invalidates as the home's Inv leaves, and reads the
    // block again before that Inv reaches it (the network holds the
    // Inv), so its GetS travels home ahead of its plain InvAck. With
    // that ack slow too, node 2 re-joins as a sharer, and node 0's write
    // recalls node 2's new copy. The old ack is owed for the old recall
    // and must not answer the new one.
    access(0, blkB, false);
    access(2, blkB, false);
    hold_ = [](const Message &m) {
        return m.dst == 2 ? m.type == MsgType::Inv
                          : m.type == MsgType::InvAck && m.src == 2;
    };
    bool wrote3 = false;
    issue(3, blkB, true, wrote3);
    runUntilLocked(blkB);
    caches_[2]->requestSelfInvalidate(blkB);
    bool read2 = false;
    issue(2, blkB, false, read2);
    // Once node 2's GetS has left, the Inv arrives; nothing else from the
    // home to node 2 is in flight, so the channel stays FIFO.
    CacheParams cp;
    sched_.runUntil(eq_.now() + cp.ctrlOverhead + cp.remoteLookup);
    ASSERT_EQ(held_.size(), 1u);
    Message inv = held_[0];
    held_.clear();
    hold_ = [](const Message &m) {
        return m.type == MsgType::InvAck && m.src == 2;
    };
    deliver(inv);
    sched_.runUntil(tickNever);
    ASSERT_TRUE(wrote3);
    ASSERT_TRUE(read2);
    ASSERT_EQ(held_.size(), 1u);
    ASSERT_EQ(dirEntry(blkB).sharers, std::uint64_t(1) << 2);

    // Node 0's write recalls node 2's new copy, and the owed ack lands.
    bool wrote0 = false;
    issue(0, blkB, true, wrote0);
    runUntilLocked(blkB);
    deliver(held_[0]);
    sched_.runUntil(tickNever);
    EXPECT_FALSE(wrote0) << "an owed ack answered a later recall";
    EXPECT_EQ(stats_.counterValue("dir.staleDrops"), 1u);

    // Node 2's answer to the new recall completes it.
    ASSERT_EQ(held_.size(), 2u);
    deliver(held_[1]);
    sched_.runUntil(tickNever);
    EXPECT_TRUE(wrote0);
    EXPECT_EQ(dirEntry(blkB).owner, NodeId(0));
    EXPECT_EQ(caches_[2]->cache().state(blkB), CacheState::Invalid);
    EXPECT_EQ(stats_.counterValue("dir.staleDrops"), 1u);
}

TEST_F(SelfInvTest, DsiCandidateBitSetForActivelySharedBlock)
{
    // Writer self-invalidates; re-fetch by the writer compares its
    // stale fetched-version against the bumped directory version.
    access(0, blkB, true);
    access(2, blkB, true);
    // Node 0 re-reads: its version is stale -> candidate bit.
    // (We can only observe the effect through the predictor interface
    // in integration tests; here check the version difference directly.)
    CacheLine *line = caches_[0]->cache().findAny(blkB);
    ASSERT_NE(line, nullptr);
    EXPECT_NE(line->version, dirEntry(blkB).version);
}

} // namespace
} // namespace ltp
