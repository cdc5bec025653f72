/**
 * @file
 * Tests for simulated-thread synchronization: the magic barrier and the
 * coherent-memory spin locks (including mutual exclusion as a property
 * under contention).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kernel/sync.hh"
#include "kernel/thread_ctx.hh"
#include "net/network.hh"
#include "proto/cache_controller.hh"
#include "proto/dir_controller.hh"

namespace ltp
{
namespace
{

constexpr Addr lockAddrC = 0x1000;
constexpr Addr counterAddrC = 0x2000;
constexpr LockPcs lockPcsC{0x10, 0x14, 0x18};
constexpr int lockItersC = 6;
constexpr Addr flagC = 0x3000;
constexpr Addr fetchCtrC = 0x4000;

/** Mini-DSM harness running real coroutine threads. */
class SyncTest : public ::testing::Test
{
  protected:
    static constexpr NodeId kNodes = 8;

    SyncTest() : homes_(4096, kNodes)
    {
        net_ = std::make_unique<Network>(sched_, kNodes, NetworkParams{});
        sync_ = std::make_unique<SyncDomain>(sched_, kNodes, 200);
        for (NodeId n = 0; n < kNodes; ++n) {
            caches_.push_back(std::make_unique<CacheController>(
                n, sched_, *net_, homes_, CacheParams{}, stats_));
            dirs_.push_back(std::make_unique<DirController>(
                n, sched_, *net_, DirParams{}, stats_));
            threads_.push_back(std::make_unique<ThreadCtx>(
                n, eq_, *caches_[n], mem_, *sync_, 1));
        }
        for (NodeId n = 0; n < kNodes; ++n) {
            net_->setSink(n, [this, n](const Message &m) {
                if (routesToDirectory(m.type))
                    dirs_[n]->receive(m);
                else
                    caches_[n]->receive(m);
            });
        }
    }

    /** Start one root task per node and run to completion. */
    void
    runAll(std::vector<Task<void>> tasks)
    {
        done_.assign(tasks.size(), [] {});
        tasks_ = std::move(tasks);
        for (std::size_t i = 0; i < tasks_.size(); ++i)
            tasks_[i].start(&done_[i]);
        sched_.runUntil(100'000'000);
        for (auto &t : tasks_)
            ASSERT_TRUE(t.done()) << "thread deadlocked";
    }

    ParallelScheduler sched_{1, kNodes,
                             networkLookahead(NetworkParams{}).ticks};
    EventQueue &eq_ = sched_.queueFor(0);
    StatGroup &stats_ = sched_.shardStats(0);
    HomeMap homes_;
    MemoryValues mem_;
    std::unique_ptr<Network> net_;
    std::unique_ptr<SyncDomain> sync_;
    std::vector<std::unique_ptr<CacheController>> caches_;
    std::vector<std::unique_ptr<DirController>> dirs_;
    std::vector<std::unique_ptr<ThreadCtx>> threads_;
    std::vector<Task<void>> tasks_;
    std::vector<std::function<void()>> done_;
};

TEST_F(SyncTest, BarrierBlocksUntilAllArrive)
{
    std::vector<Tick> release_times(kNodes);
    std::vector<Task<void>> tasks;
    for (NodeId n = 0; n < kNodes; ++n) {
        tasks.push_back([](ThreadCtx &ctx, NodeId id,
                           std::vector<Tick> &out) -> Task<void> {
            co_await ctx.compute(100 * (id + 1)); // staggered arrivals
            co_await barrier(ctx);
            out[id] = ctx.now();
        }(*threads_[n], n, release_times));
    }
    runAll(std::move(tasks));
    // Everyone released at the same tick, after the last arrival.
    for (NodeId n = 0; n < kNodes; ++n)
        EXPECT_EQ(release_times[n], release_times[0]);
    EXPECT_GE(release_times[0], 100u * kNodes);
    EXPECT_EQ(sync_->barriersCompleted(), 1u);
}

TEST_F(SyncTest, BarrierReusableAcrossGenerations)
{
    std::vector<Task<void>> tasks;
    for (NodeId n = 0; n < kNodes; ++n) {
        tasks.push_back([](ThreadCtx &ctx) -> Task<void> {
            for (int i = 0; i < 5; ++i) {
                co_await ctx.compute(10 + ctx.id());
                co_await barrier(ctx);
            }
        }(*threads_[n]));
    }
    runAll(std::move(tasks));
    EXPECT_EQ(sync_->barriersCompleted(), 5u);
}

TEST_F(SyncTest, LockProvidesMutualExclusionProperty)
{
    // Classic critical-section interleaving check: counter incremented
    // non-atomically (separate load and store with compute between)
    // under the lock must still end exact.
    std::vector<Task<void>> tasks;
    for (NodeId n = 0; n < kNodes; ++n) {
        tasks.push_back([](ThreadCtx &ctx) -> Task<void> {
            for (int i = 0; i < lockItersC; ++i) {
                co_await acquireLock(ctx, lockAddrC, lockPcsC);
                std::uint64_t v = co_await ctx.load(0x20, counterAddrC);
                co_await ctx.compute(50 + ctx.rng().below(100));
                co_await ctx.store(0x24, counterAddrC, v + 1);
                co_await releaseLock(ctx, lockAddrC, lockPcsC);
                co_await ctx.compute(30);
            }
        }(*threads_[n]));
    }
    runAll(std::move(tasks));
    EXPECT_EQ(mem_.load(counterAddrC),
              std::uint64_t(kNodes) * lockItersC);
    EXPECT_EQ(mem_.load(lockAddrC), 0u) << "lock left held";
}

TEST_F(SyncTest, TestAndSetIsAtomicUnderContention)
{
    // All nodes race one TAS; exactly one must win each round.
    std::vector<int> wins(kNodes, 0);
    std::vector<Task<void>> tasks;
    for (NodeId n = 0; n < kNodes; ++n) {
        tasks.push_back([](ThreadCtx &ctx,
                           std::vector<int> &w) -> Task<void> {
            std::uint64_t old =
                co_await ctx.testAndSet(0x30, flagC, ctx.id() + 1);
            if (old == 0)
                w[ctx.id()] = 1;
        }(*threads_[n], wins));
    }
    runAll(std::move(tasks));
    int total = 0;
    for (int w : wins)
        total += w;
    EXPECT_EQ(total, 1);
}

TEST_F(SyncTest, FetchAddSerializesCorrectly)
{
    std::vector<Task<void>> tasks;
    for (NodeId n = 0; n < kNodes; ++n) {
        tasks.push_back([](ThreadCtx &ctx) -> Task<void> {
            for (int i = 0; i < 10; ++i)
                co_await ctx.fetchAdd(0x40, fetchCtrC, 1);
        }(*threads_[n]));
    }
    runAll(std::move(tasks));
    EXPECT_EQ(mem_.load(fetchCtrC), std::uint64_t(kNodes) * 10);
}

TEST_F(SyncTest, MemOpsCounted)
{
    std::vector<Task<void>> tasks;
    for (NodeId n = 0; n < kNodes; ++n) {
        tasks.push_back([](ThreadCtx &ctx) -> Task<void> {
            co_await ctx.store(0x50, 0x5000 + ctx.id() * 64, 1);
            co_await ctx.load(0x54, 0x5000 + ctx.id() * 64);
        }(*threads_[n]));
    }
    runAll(std::move(tasks));
    for (NodeId n = 0; n < kNodes; ++n)
        EXPECT_EQ(threads_[n]->memOps(), 2u);
}

} // namespace
} // namespace ltp
