// ltp-tidy fixture: ltp-no-unordered-container MUST fire on each line
// marked `expect` below and nowhere else.
// ltp-tidy-scope: model
//
// Hash-table iteration order depends on the hasher, the load factor,
// and (for pointer keys) the address space — anything that walks one
// and emits or accumulates in that order produces run-dependent
// results.

#include <string>
#include <unordered_map>
#include <unordered_set>

namespace fixture
{

using Sharers = std::unordered_set<unsigned>; // expect

class Directory
{
  public:
    void track(unsigned long addr, unsigned node)
    {
        sharers_[addr].insert(node);
    }

  private:
    std::unordered_map<unsigned long, Sharers> sharers_; // expect
};

} // namespace fixture
