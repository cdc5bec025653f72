/** @file Unit tests for the coroutine task machinery. */

#include <gtest/gtest.h>

#include "kernel/task.hh"
#include "sim/event_queue.hh"

namespace ltp
{
namespace
{

/** Awaitable that suspends until an event fires. */
struct DelayAwaiter
{
    EventQueue *eq;
    Tick delay;

    bool await_ready() const { return false; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        eq->scheduleIn(delay, [h] { h.resume(); });
    }
    void await_resume() const {}
};

Task<void>
simpleTask(int &counter)
{
    ++counter;
    co_return;
}

Task<int>
valueTask()
{
    co_return 42;
}

Task<int>
nestedTask()
{
    int v = co_await valueTask();
    co_return v + 1;
}

Task<void>
timedTask(EventQueue &eq, std::vector<Tick> &ticks)
{
    ticks.push_back(eq.now());
    co_await DelayAwaiter{&eq, 10};
    ticks.push_back(eq.now());
    co_await DelayAwaiter{&eq, 5};
    ticks.push_back(eq.now());
}

TEST(Task, LazyUntilStarted)
{
    int counter = 0;
    std::function<void()> on_done = [] {};
    Task<void> t = simpleTask(counter);
    EXPECT_EQ(counter, 0);
    t.start(&on_done);
    EXPECT_EQ(counter, 1);
    EXPECT_TRUE(t.done());
}

TEST(Task, CompletionCallbackFires)
{
    int counter = 0;
    bool completed = false;
    std::function<void()> on_done = [&] { completed = true; };
    Task<void> t = simpleTask(counter);
    t.start(&on_done);
    EXPECT_TRUE(completed);
}

TEST(Task, NestedTaskReturnsValue)
{
    bool done = false;
    std::function<void()> on_done = [&] { done = true; };
    int result = 0;
    // The coroutine reaches `result` through the lambda's captures, so
    // the closure must outlive the task (not be a temporary).
    auto body = [&]() -> Task<void> {
        result = co_await nestedTask();
    };
    Task<void> outer = body();
    outer.start(&on_done);
    EXPECT_TRUE(done);
    EXPECT_EQ(result, 43);
}

TEST(Task, SuspendsAcrossEvents)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    std::function<void()> on_done = [] {};
    Task<void> t = timedTask(eq, ticks);
    t.start(&on_done);
    EXPECT_EQ(ticks.size(), 1u);
    eq.run();
    ASSERT_EQ(ticks.size(), 3u);
    EXPECT_EQ(ticks[0], 0u);
    EXPECT_EQ(ticks[1], 10u);
    EXPECT_EQ(ticks[2], 15u);
    EXPECT_TRUE(t.done());
}

TEST(Task, NestedSuspensionResumesParent)
{
    EventQueue eq;
    std::vector<int> order;
    std::function<void()> on_done = [] {};
    auto child = [&]() -> Task<void> {
        order.push_back(1);
        co_await DelayAwaiter{&eq, 5};
        order.push_back(2);
    };
    auto parentBody = [&]() -> Task<void> {
        order.push_back(0);
        co_await child();
        order.push_back(3);
    };
    Task<void> parent = parentBody();
    parent.start(&on_done);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(parent.done());
}

TEST(Task, MoveTransfersOwnership)
{
    int counter = 0;
    Task<void> a = simpleTask(counter);
    Task<void> b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_TRUE(b.valid());
    std::function<void()> on_done = [] {};
    b.start(&on_done);
    EXPECT_EQ(counter, 1);
}

TEST(Task, DestroyUnstartedTaskIsSafe)
{
    int counter = 0;
    {
        Task<void> t = simpleTask(counter);
    }
    EXPECT_EQ(counter, 0);
}

TEST(Task, ManySequentialChildren)
{
    EventQueue eq;
    int total = 0;
    std::function<void()> on_done = [] {};
    auto child = [&](int i) -> Task<int> {
        co_await DelayAwaiter{&eq, 1};
        co_return i;
    };
    auto parentBody = [&]() -> Task<void> {
        for (int i = 0; i < 50; ++i)
            total += co_await child(i);
    };
    Task<void> parent = parentBody();
    parent.start(&on_done);
    eq.run();
    EXPECT_EQ(total, 49 * 50 / 2);
}

} // namespace
} // namespace ltp
