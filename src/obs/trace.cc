#include "obs/trace.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

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

Tracer::Tracer(const TraceConfig &config, std::vector<unsigned> node_shard)
{
    if (config.path.empty())
        return;
    config_ = config;
    nodeShard_ = std::move(node_shard);
    unsigned shards = 1;
    for (unsigned s : nodeShard_)
        shards = std::max(shards, s + 1);
    for (unsigned s = 0; s < shards; ++s)
        buffers_.push_back(std::make_unique<ShardBuf>());
    mask_ = config_.categories & allCatsMask;
}

void
Tracer::record(Cat c, bool span, std::uint32_t node, const char *name,
               Tick ts, Tick dur, std::uint64_t a0, std::uint64_t a1)
{
    // Single writer per buffer: engine records name their shard, and a
    // node's records come from events on that node's shard.
    unsigned shard = c == Cat::Engine ? node : nodeShard_[node];
    ShardBuf &buf = *buffers_[shard];
    if (buf.count >= eventCapPerShard) {
        ++buf.dropped;
        return;
    }
    Rec rec;
    rec.ts = ts;
    rec.dur = dur;
    rec.a0 = a0;
    rec.a1 = a1;
    rec.name = name;
    rec.node = node;
    rec.shard = std::uint16_t(shard);
    rec.cat = std::uint8_t(c);
    rec.span = span;
    // Lane idiom: once a buffer has spilled past its ring it must keep
    // spilling, or ring-then-spill drain order would interleave.
    if (!buf.spill.empty() || !buf.ring.tryPush(std::move(rec)))
        buf.spill.push_back(rec);
    ++buf.count;
}

void
Tracer::flush()
{
    if (buffers_.empty())
        return;
    mask_ = 0;

    std::vector<Rec> recs;
    std::uint64_t dropped = 0;
    for (auto &buf : buffers_) {
        recs.reserve(recs.size() + buf->count);
        Rec rec;
        while (buf->ring.tryPop(rec))
            recs.push_back(rec);
        recs.insert(recs.end(), buf->spill.begin(), buf->spill.end());
        dropped += buf->dropped;
    }
    unsigned shards = unsigned(buffers_.size());
    buffers_.clear();

    // Perfetto tolerates unsorted input, but a time-sorted file is
    // friendlier to trace_summarize.py and to diffing.
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Rec &a, const Rec &b) { return a.ts < b.ts; });

    std::ofstream out(substitutePid(config_.path));
    if (!out)
        return;

    auto pidOf = [](const Rec &r) {
        return Cat(r.cat) == Cat::Engine ? enginePidBase + r.node : r.node;
    };

    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
        << dropped << "},\"traceEvents\":[\n";
    bool first = true;
    auto comma = [&] {
        if (!first)
            out << ",\n";
        first = false;
    };
    for (std::uint32_t node = 0; node < nodeShard_.size(); ++node) {
        comma();
        out << "{\"ph\":\"M\",\"pid\":" << node
            << ",\"name\":\"process_name\",\"args\":{\"name\":\"node "
            << node << "\"}}";
        comma();
        out << "{\"ph\":\"M\",\"pid\":" << node << ",\"tid\":"
            << nodeShard_[node]
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\"shard "
            << nodeShard_[node] << "\"}}";
    }
    for (unsigned s = 0; s < shards; ++s) {
        comma();
        out << "{\"ph\":\"M\",\"pid\":" << (enginePidBase + s)
            << ",\"name\":\"process_name\",\"args\":{\"name\":"
            << "\"engine shard " << s << "\"}}";
    }
    char line[256];
    for (const Rec &rec : recs) {
        comma();
        if (rec.span) {
            std::snprintf(line, sizeof(line),
                          "{\"ph\":\"X\",\"cat\":\"%s\",\"name\":\"%s\","
                          "\"pid\":%u,\"tid\":%u,\"ts\":%llu,"
                          "\"dur\":%llu,\"args\":{\"a0\":%llu,"
                          "\"a1\":%llu}}",
                          catName(Cat(rec.cat)), rec.name, pidOf(rec),
                          unsigned(rec.shard),
                          (unsigned long long)rec.ts,
                          (unsigned long long)rec.dur,
                          (unsigned long long)rec.a0,
                          (unsigned long long)rec.a1);
        } else {
            std::snprintf(line, sizeof(line),
                          "{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"%s\","
                          "\"name\":\"%s\",\"pid\":%u,\"tid\":%u,"
                          "\"ts\":%llu,\"args\":{\"a0\":%llu,"
                          "\"a1\":%llu}}",
                          catName(Cat(rec.cat)), rec.name, pidOf(rec),
                          unsigned(rec.shard),
                          (unsigned long long)rec.ts,
                          (unsigned long long)rec.a0,
                          (unsigned long long)rec.a1);
        }
        out << line;
    }
    out << "\n]}\n";
}

std::size_t
Tracer::tail(Rec *out, std::size_t max) const
{
    // Of each shard's newest @p max records, keep the newest @p max by
    // timestamp, equal timestamps in gathering order (a stable sort's
    // tail). @p out stays sorted as records arrive: each goes after
    // every equal-timestamp one already there, and once @p out is full
    // its oldest drops out.
    std::size_t n = 0;
    auto insert = [&](const Rec &rec) {
        std::size_t pos = n;
        while (pos > 0 && out[pos - 1].ts > rec.ts)
            --pos;
        if (n < max) {
            for (std::size_t i = n; i > pos; --i)
                out[i] = out[i - 1];
            out[pos] = rec;
            ++n;
        } else if (pos > 0) {
            for (std::size_t i = 0; i + 1 < pos; ++i)
                out[i] = out[i + 1];
            out[pos - 1] = rec;
        }
    };
    for (const auto &buf : buffers_) {
        // Per-shard emit order is ring first, then spill (the lane
        // idiom keeps that FIFO); walk each source from its newest end.
        std::size_t want = max;
        const std::vector<Rec> &spill = buf->spill;
        for (std::size_t i = spill.size(); i > 0 && want; --i, --want)
            insert(spill[i - 1]);
        // The ring is never popped while a run is active, so its live
        // sequence range is exactly [0, rawTail) and rawTail never
        // exceeds the ring capacity.
        for (std::size_t seq = buf->ring.rawTail(); seq > 0 && want;
             --seq, --want) {
            if (const Rec *rec = buf->ring.rawSlot(seq - 1))
                insert(*rec);
        }
    }
    return n;
}

} // namespace obs
} // namespace ltp
