// ltp-tidy fixture: ltp-no-pointer-order MUST fire on each line marked
// `expect` below and nowhere else; `expect-plugin` marks an AST-only
// line (a raw `<` on pointers reads like any other `<` to a regex).
// ltp-tidy-scope: model
//
// Pointer values are a property of the allocator and the address
// space, not of the model. Ordering, hashing, or integer-casting them
// lets malloc layout decide tie-breaks — byte-identical dumps survive
// only until the next allocator change.

#include <cstdint>
#include <functional>
#include <map>
#include <set>

namespace fixture
{

struct Node
{
    unsigned id;
};

bool
arbitrate(const Node *a, const Node *b)
{
    // Raw pointer ordering comparison decides a model tie-break.
    return a < b; // expect-plugin
}

unsigned long
hashSlot(const Node *n)
{
    // Pointer-to-integer cast: the address leaks into the result.
    return static_cast<unsigned long>(
        reinterpret_cast<std::uintptr_t>(n) >> 4); // expect
}

class Arbiter
{
  private:
    // Containers keyed on raw pointers iterate in address order.
    std::map<Node *, unsigned> credits_; // expect
    // An explicit ordering functor changes nothing.
    std::set<const Node *, std::less<const Node *>> waiters_; // expect
    // A pointer hasher needs no container to leak the address.
    std::hash<const Node *> hasher_; // expect
};

} // namespace fixture
