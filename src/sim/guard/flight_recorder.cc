#include "sim/guard/flight_recorder.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>

#include "obs/categories.hh"
#include "obs/trace.hh"

namespace ltp
{
namespace guard
{

namespace
{

constexpr std::size_t tailRecordCount = 256;

// The crash handler's table of live recorders: signal handlers have no
// argument channel. A recorder takes a free slot for its lifetime.
// Beyond maxLive concurrent runs a recorder still dumps on the clean
// path, just not on a crash.
constexpr std::size_t maxLive = 64;
std::atomic<FlightRecorder *> gLive[maxLive];
std::once_flag gInstallOnce;

/** printf straight to @p fd (no stdio stream, signal-path friendly). */
void
fdPrintf(int fd, const char *fmt, ...)
{
    char buf[2048];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n <= 0)
        return;
    std::size_t len = std::size_t(n) < sizeof(buf) ? std::size_t(n)
                                                   : sizeof(buf) - 1;
    std::size_t off = 0;
    while (off < len) {
        ssize_t w = ::write(fd, buf + off, len - off);
        if (w <= 0)
            return;
        off += std::size_t(w);
    }
}

/** JSON-escape @p in (capped) into @p out; always NUL-terminated. */
void
escapeJson(const char *in, char *out, std::size_t cap)
{
    std::size_t o = 0;
    for (std::size_t i = 0; in && in[i] && o + 8 < cap; ++i) {
        unsigned char c = (unsigned char)in[i];
        if (c == '"' || c == '\\') {
            out[o++] = '\\';
            out[o++] = char(c);
        } else if (c < 0x20) {
            o += std::size_t(std::snprintf(out + o, cap - o, "\\u%04x", c));
        } else {
            out[o++] = char(c);
        }
    }
    out[o] = '\0';
}

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGABRT: return "SIGABRT";
    }
    return "signal";
}

std::string
substitutePid(std::string path)
{
    std::size_t at = path.find("%p");
    if (at != std::string::npos)
        path.replace(at, 2, std::to_string(::getpid()));
    return path;
}

} // namespace

FlightRecorder::FlightRecorder(const std::string &path, RecorderContext ctx)
    : ctx_(std::move(ctx))
{
    std::snprintf(path_, sizeof(path_), "%s", substitutePid(path).c_str());
    std::call_once(gInstallOnce, installHandlers);
    for (auto &slot : gLive) {
        FlightRecorder *free_slot = nullptr;
        if (slot.compare_exchange_strong(free_slot, this))
            break;
    }
}

FlightRecorder::~FlightRecorder()
{
    for (auto &slot : gLive) {
        FlightRecorder *self = this;
        if (slot.compare_exchange_strong(self, nullptr))
            break;
    }
}

bool
FlightRecorder::dumpNow(const std::string &reason)
{
    return write(reason.c_str(), 0);
}

/**
 * The crash path runs this on a dying process — every read is
 * best-effort by contract (see header), and nothing here allocates.
 */
bool
FlightRecorder::write(const char *reason, int sig)
{
    int fd = ::open(path_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;

    char esc[600];
    escapeJson(reason, esc, sizeof(esc));
    fdPrintf(fd, "{\n  \"reason\": \"%s\",\n", esc);
    if (sig) {
        fdPrintf(fd, "  \"signal\": {\"number\": %d, \"name\": \"%s\"},\n",
                 sig, signalName(sig));
    } else {
        fdPrintf(fd, "  \"signal\": null,\n");
    }

    unsigned long long tick = ctx_.tick ? (unsigned long long)ctx_.tick()
                                        : 0;
    unsigned long long events =
        ctx_.events ? (unsigned long long)ctx_.events() : 0;
    fdPrintf(fd,
             "  \"tick\": %llu,\n  \"events\": %llu,\n"
             "  \"shards\": %u,\n  \"rssMb\": %llu,\n",
             tick, events, ctx_.shards,
             (unsigned long long)currentRssMb());

    if (ctx_.barrierGeneration && ctx_.barrierArrived) {
        fdPrintf(fd,
                 "  \"barrier\": {\"generation\": %lu, \"arrived\": %u},\n",
                 (unsigned long)ctx_.barrierGeneration(),
                 ctx_.barrierArrived());
    } else {
        fdPrintf(fd, "  \"barrier\": null,\n");
    }

    // The profile hook takes the scheduler's profile lock — fine after
    // the workers joined, a potential deadlock on the crash path.
    if (!sig && ctx_.profile) {
        obs::EngineProfile p = ctx_.profile();
        fdPrintf(fd,
                 "  \"profile\": {\"rounds\": %llu, \"windowTicks\": %llu, "
                 "\"barrierParks\": %llu, \"barrierWaitNs\": %llu, "
                 "\"spilledPosts\": %llu, \"overflowMigrations\": %llu},\n",
                 (unsigned long long)p.rounds,
                 (unsigned long long)p.windowTicks,
                 (unsigned long long)p.barrierParks,
                 (unsigned long long)p.barrierWaitNs,
                 (unsigned long long)p.spilledPosts,
                 (unsigned long long)p.overflowMigrations);
    } else {
        fdPrintf(fd, "  \"profile\": null,\n");
    }

    fdPrintf(fd, "  \"traceTail\": [");
    obs::Tracer::Rec tail[tailRecordCount];
    std::size_t n = ctx_.tracer ? ctx_.tracer->tail(tail, tailRecordCount)
                                : 0;
    const char *sep = "\n    ";
    for (std::size_t i = 0; i < n; ++i) {
        const obs::Tracer::Rec &rec = tail[i];
        char name[160];
        escapeJson(rec.name ? rec.name : "", name, sizeof(name));
        fdPrintf(fd,
                 "%s{\"ts\": %llu, \"dur\": %llu, \"name\": \"%s\", "
                 "\"cat\": \"%s\", \"node\": %lu, \"shard\": %u, "
                 "\"span\": %s, \"a0\": %llu, \"a1\": %llu}",
                 sep, (unsigned long long)rec.ts,
                 (unsigned long long)rec.dur, name,
                 obs::catName(obs::Cat(rec.cat)), (unsigned long)rec.node,
                 unsigned(rec.shard), rec.span ? "true" : "false",
                 (unsigned long long)rec.a0, (unsigned long long)rec.a1);
        sep = ",\n    ";
    }
    fdPrintf(fd, "\n  ]\n}\n");
    ::close(fd);
    return true;
}

void
FlightRecorder::crashHandler(int sig)
{
    // SA_RESETHAND restored SIG_DFL on entry; one dump attempt per live
    // recorder, then re-raise so the default disposition (core, nonzero
    // exit) happens.
    static std::atomic<bool> dumping{false};
    if (!dumping.exchange(true)) {
        char reason[64];
        std::snprintf(reason, sizeof(reason), "crash: %s",
                      signalName(sig));
        for (auto &slot : gLive) {
            if (FlightRecorder *rec = slot.load())
                rec->write(reason, sig);
        }
    }
    ::raise(sig);
}

void
FlightRecorder::installHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crashHandler;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT})
        ::sigaction(sig, &sa, nullptr);
}

} // namespace guard
} // namespace ltp
