#include "sim/guard/watchdog.hh"

#include <algorithm>
#include <chrono>
#include <cstring>

#if defined(__linux__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ltp
{
namespace guard
{

std::uint64_t
currentRssMb()
{
#if defined(__linux__)
    // statm field 2: resident pages. Cheap enough to poll; parsed by
    // hand because stdio allocates.
    int fd = ::open("/proc/self/statm", O_RDONLY);
    if (fd < 0)
        return 0;
    char buf[128];
    ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
    ::close(fd);
    if (n <= 0)
        return 0;
    buf[n] = '\0';
    const char *p = std::strchr(buf, ' '); // past field 1, total size
    if (!p)
        return 0;
    std::uint64_t resident = 0;
    for (++p; *p >= '0' && *p <= '9'; ++p)
        resident = resident * 10 + std::uint64_t(*p - '0');
    return resident * std::uint64_t(sysconf(_SC_PAGESIZE)) / (1024 * 1024);
#else
    return 0;
#endif
}

Watchdog::Watchdog(const GuardParams &params, WatchdogHooks hooks)
    : params_(params), hooks_(std::move(hooks))
{
    if (params_.watchdogEnabled())
        thread_ = std::thread([this] { loop(); });
}

Watchdog::~Watchdog()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

std::string
Watchdog::reason() const
{
    std::lock_guard<std::mutex> g(mu_);
    return reason_;
}

void
Watchdog::fire(const std::string &reason)
{
    {
        std::lock_guard<std::mutex> g(mu_);
        if (fired_.load(std::memory_order_relaxed))
            return;
        reason_ = reason;
    }
    fired_.store(true, std::memory_order_release);
    if (hooks_.abort)
        hooks_.abort(reason);
}

void
Watchdog::loop()
{
    using Clock = std::chrono::steady_clock;
    using Ms = std::chrono::milliseconds;

    // Poll at a quarter of the tightest armed budget, clamped to
    // [5, 100] ms: responsive enough that "within the configured
    // budget" holds with margin, cheap enough to be invisible. The
    // countable budgets (events, RSS) have no natural wall period —
    // poll fast so even a short run overshoots them by at most a few
    // milliseconds' worth of events.
    std::uint64_t tightest = UINT64_MAX;
    for (std::uint64_t b : {params_.noProgressMs, params_.barrierStallMs,
                            params_.maxWallMs}) {
        if (b)
            tightest = std::min(tightest, b);
    }
    Ms poll{tightest == UINT64_MAX
                ? 100
                : std::clamp<std::uint64_t>(tightest / 4, 5, 100)};
    if (params_.maxEvents || params_.maxRssMb)
        poll = std::min(poll, Ms{10});

    const auto start = Clock::now();
    auto now_ms = [&] {
        return std::uint64_t(std::chrono::duration_cast<Ms>(Clock::now() -
                                                            start)
                                 .count());
    };

    Tick last_tick = hooks_.tick ? hooks_.tick() : 0;
    std::uint64_t last_events = hooks_.events ? hooks_.events() : 0;
    std::uint64_t progress_since = 0;

    std::uint32_t last_gen =
        hooks_.barrierGeneration ? hooks_.barrierGeneration() : 0;
    std::uint64_t gen_since = 0;

    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (cv_.wait_for(lk, poll, [this] { return stop_; }))
            return;
        if (fired_.load(std::memory_order_relaxed))
            continue; // keep sleeping until the run tears us down
        lk.unlock();

        std::uint64_t elapsed = now_ms();

        if (params_.noProgressMs && hooks_.tick && hooks_.events) {
            Tick t = hooks_.tick();
            std::uint64_t ev = hooks_.events();
            if (t != last_tick || ev != last_events) {
                last_tick = t;
                last_events = ev;
                progress_since = elapsed;
            } else if (elapsed - progress_since >= params_.noProgressMs) {
                fire("no-progress: tick " + std::to_string(t) +
                     " and retired events " + std::to_string(ev) +
                     " frozen for " +
                     std::to_string(elapsed - progress_since) +
                     " ms (budget " + std::to_string(params_.noProgressMs) +
                     " ms)");
            }
        }

        if (params_.barrierStallMs && hooks_.barrierGeneration &&
            hooks_.barrierArrived) {
            std::uint32_t gen = hooks_.barrierGeneration();
            unsigned arrived = hooks_.barrierArrived();
            if (gen != last_gen || arrived == 0) {
                last_gen = gen;
                gen_since = elapsed;
            } else if (elapsed - gen_since >= params_.barrierStallMs) {
                fire("barrier stall: " + std::to_string(arrived) +
                     " shard(s) parked on the window barrier (generation " +
                     std::to_string(gen) + " frozen for " +
                     std::to_string(elapsed - gen_since) + " ms, budget " +
                     std::to_string(params_.barrierStallMs) + " ms)");
            }
        }

        if (params_.maxWallMs && elapsed >= params_.maxWallMs) {
            fire("wall-clock budget exceeded: " + std::to_string(elapsed) +
                 " ms >= " + std::to_string(params_.maxWallMs) + " ms");
        }

        if (params_.maxEvents && hooks_.events) {
            std::uint64_t ev = hooks_.events();
            if (ev >= params_.maxEvents) {
                fire("event budget exceeded: " + std::to_string(ev) +
                     " retired events >= " +
                     std::to_string(params_.maxEvents));
            }
        }

        if (params_.maxRssMb) {
            std::uint64_t rss = currentRssMb();
            if (rss >= params_.maxRssMb) {
                fire("RSS budget exceeded: " + std::to_string(rss) +
                     " MiB resident >= " + std::to_string(params_.maxRssMb) +
                     " MiB");
            }
        }

        lk.lock();
    }
}

} // namespace guard
} // namespace ltp
