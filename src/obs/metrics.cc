#include "obs/metrics.hh"

#include <unistd.h>

namespace ltp
{
namespace obs
{

namespace
{

std::string
substitutePid(std::string path)
{
    std::size_t at = path.find("%p");
    if (at != std::string::npos)
        path.replace(at, 2, std::to_string(::getpid()));
    return path;
}

} // namespace

MetricsSampler::MetricsSampler(const std::string &path, Tick interval_ticks)
    : out_(substitutePid(path)),
      interval_(interval_ticks > 0 ? interval_ticks : 1),
      nextDue_(interval_)
{
}

void
MetricsSampler::sample(Tick now, const StatGroup &stats,
                       std::uint64_t events_executed)
{
    StatSnapshot snap = stats.snapshot();
    StatSnapshot delta = snap.delta(last_);

    out_ << "{\"tick\":" << now << ",\"sinceTick\":" << lastTick_
         << ",\"events\":" << (events_executed - lastEvents_)
         << ",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : delta.counters) {
        if (value == 0)
            continue;
        if (!first)
            out_ << ",";
        first = false;
        out_ << "\"" << name << "\":" << value;
    }
    out_ << "},\"averages\":{";
    first = true;
    for (const auto &[name, avg] : delta.averages) {
        if (avg.count == 0)
            continue;
        if (!first)
            out_ << ",";
        first = false;
        out_ << "\"" << name << "\":{\"sum\":" << avg.sum
             << ",\"count\":" << avg.count << "}";
    }
    out_ << "}}\n";

    last_ = std::move(snap);
    lastTick_ = now;
    lastEvents_ = events_executed;
    ++samples_;
    // Realign to the grid strictly after `now` so a late sample (taken
    // at the first event at or after the due tick) doesn't trigger an
    // immediate second one.
    nextDue_ = ((now / interval_) + 1) * interval_;
}

void
MetricsSampler::finish(Tick now, const StatGroup &stats,
                       std::uint64_t events_executed)
{
    if (now > lastTick_ || samples_ == 0)
        sample(now, stats, events_executed);
    out_.flush();
}

} // namespace obs
} // namespace ltp
