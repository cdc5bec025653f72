// ltp-tidy fixture: ltp-no-shared-rng MUST fire on each line marked
// `expect` below and nowhere else.
// ltp-tidy-scope: model
//
// A shared mutable stream makes the draw sequence part of the result:
// any reordering of consumers (e.g. a different shard schedule)
// changes every subsequent value. Same for the C library's hidden
// global state.

#include <cstdlib>
#include <random>

namespace ltp
{

// Mock of the project's stateful generator (src/sim/rng.hh).
class Rng
{
  public:
    explicit Rng(unsigned long long seed) : state_(seed) {}
    unsigned long long next() { return ++state_; }

  private:
    unsigned long long state_;
};

} // namespace ltp

namespace fixture
{

class Router
{
  public:
    // Member std engine: a shared stream consumed in arrival order.
    unsigned pickStd(unsigned n) { return unsigned(gen_()) % n; }

    // Member ltp::Rng: same consumption-order hazard.
    unsigned pickLtp(unsigned n) { return unsigned(rng_.next() % n); }

    // C library RNG: hidden global state.
    unsigned pickLibc(unsigned n) { return unsigned(rand()) % n; } // expect

  private:
    std::mt19937 gen_; // expect
    // A qualified ltp::Rng member is a stream all the same.
    ltp::Rng rng_{42}; // expect
};

} // namespace fixture
