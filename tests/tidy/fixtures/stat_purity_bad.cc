// ltp-tidy fixture: ltp-stat-purity MUST fire on each line marked
// `expect` in the observer code below and nowhere else.
// ltp-tidy-scope: observer
//
// guard/ and obs/ exist to watch the simulation, never to perturb it:
// arming a watchdog or a tracer must leave every stats dump
// byte-identical. Acquiring a StatGroup handle through the creating
// lookups, or mutating a stat object, breaks that guarantee.

namespace ltp
{

// Mock of src/sim/stats.hh.
class Counter
{
  public:
    void inc(unsigned long d = 1) { v_ += d; }
    unsigned long value() const { return v_; }

  private:
    unsigned long v_ = 0;
};

class StatGroup
{
  public:
    Counter &counter(const char *) { return c_; }
    void mergeFrom(const StatGroup &) {}
    void resetAll() {}

  private:
    Counter c_;
};

} // namespace ltp

namespace fixture
{

void
armWatchdog(ltp::StatGroup &stats)
{
    // Creating lookup + mutation from observer code.
    stats.counter("guard.fired").inc(); // expect

    // A creating lookup alone already adds a stat to the dump.
    stats.counter("guard.armed"); // expect

    // Bulk mutator: wipes model-owned results.
    stats.resetAll(); // expect
}

void
countFault(ltp::Counter &faults)
{
    // A stat object's mutator, however the handle was obtained.
    faults.inc(); // expect
}

} // namespace fixture
