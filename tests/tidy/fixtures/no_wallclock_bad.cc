// ltp-tidy fixture: ltp-no-wallclock MUST fire on each line marked
// `expect` below and nowhere else.
// ltp-tidy-scope: model
//
// Model code deciding anything off the host clock breaks the
// byte-identical-dump contract: the result would depend on machine
// speed and scheduling, not on (params, seed).

#include <chrono>
#include <ctime>

#include <sys/time.h>

namespace fixture
{

unsigned long
backoffTicks()
{
    // Host steady clock in a model-side decision.
    auto deadline = std::chrono::steady_clock::now(); // expect
    return static_cast<unsigned long>(
        deadline.time_since_epoch().count());
}

unsigned long
seedFromHost()
{
    // Seeding from wall-clock time makes every run unique.
    return static_cast<unsigned long>(time(nullptr)); // expect
}

long
cpuBudget()
{
    // CPU-time read; same problem.
    return static_cast<long>(clock()); // expect
}

long
hostMicros()
{
    // POSIX wall-clock read.
    timeval tv;
    gettimeofday(&tv, nullptr); // expect
    return tv.tv_usec;
}

using HostClock = std::chrono::system_clock;

long
aliasedRead()
{
    // The alias hides the chrono name, not the clock read.
    return long(HostClock::now().time_since_epoch().count()); // expect
}

} // namespace fixture
