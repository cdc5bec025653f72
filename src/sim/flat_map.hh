/**
 * @file
 * FlatMap / FlatSet: open-addressing hash containers for the simulator's
 * hot lookup tables (directory entries, cache tags, predictor state,
 * sparse memory words).
 *
 * `std::unordered_map` pays one heap node per element and a pointer
 * chase per lookup; the simulator's hot tables are keyed by dense
 * integer-like keys (Addr, NodeId) and live on every simulated memory
 * access. FlatMap stores key/value slots contiguously, probes linearly
 * from a mixed hash with power-of-two capacity, and deletes by backward
 * shift (no tombstones), so lookups touch one or two cache lines and
 * the load factor never degrades.
 *
 * Usage rules (see src/sim/README.md):
 *  - K must be trivially hashable via FlatHash (integral/enum keys out
 *    of the box; specialize FlatHash for anything else).
 *  - V must be move-constructible; operator[] additionally requires
 *    default-constructible.
 *  - Any insert (operator[], insert) may rehash and any erase may
 *    backward-shift: BOTH invalidate every pointer/reference/iterator
 *    into the map. Never hold a reference across a mutation. (This is
 *    stricter than std::unordered_map, whose references survive rehash —
 *    audit before migrating a table.)
 *  - Iteration order is deterministic for a given insertion/erasure
 *    history but is NOT sorted and changes across rehashes: never iterate
 *    where ordering is observable (use std::map/std::set there).
 */

#ifndef LTP_SIM_FLAT_MAP_HH
#define LTP_SIM_FLAT_MAP_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ltp
{

/**
 * Default hash: an invertible 64-bit finalizer (splitmix64). Integer
 * keys are often block-aligned addresses whose low bits are all zero;
 * the mix spreads them over the whole probe space.
 */
template <typename K, typename Enable = void>
struct FlatHash;

template <typename K>
struct FlatHash<K, std::enable_if_t<std::is_integral_v<K> ||
                                    std::is_enum_v<K>>>
{
    std::size_t
    operator()(K k) const
    {
        std::uint64_t x = std::uint64_t(k);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        return std::size_t(x);
    }
};

/** Open-addressing hash map; see the file header for the usage rules. */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
    struct Slot
    {
        K key;
        [[no_unique_address]] V val;
    };
    // The slot arena comes from operator new[], which only guarantees
    // the default allocation alignment; over-aligned value types would
    // get misaligned placement-new storage.
    static_assert(alignof(K) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
                      alignof(V) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "FlatMap does not support over-aligned key/value types");

  public:
    FlatMap() = default;

    FlatMap(FlatMap &&o) noexcept { swap(o); }

    FlatMap &
    operator=(FlatMap &&o) noexcept
    {
        if (this != &o) {
            destroyAll();
            capacity_ = mask_ = size_ = 0;
            raw_.reset();
            used_.reset();
            swap(o);
        }
        return *this;
    }

    FlatMap(const FlatMap &o) { copyFrom(o); }

    FlatMap &
    operator=(const FlatMap &o)
    {
        if (this != &o) {
            destroyAll();
            capacity_ = mask_ = size_ = 0;
            raw_.reset();
            used_.reset();
            copyFrom(o);
        }
        return *this;
    }

    ~FlatMap() { destroyAll(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return capacity_; }

    /** Pointer to the mapped value, or nullptr when absent. */
    V *
    find(const K &key)
    {
        std::size_t idx = 0;
        return probe(key, idx) ? &slotAt(idx).val : nullptr;
    }

    const V *
    find(const K &key) const
    {
        std::size_t idx = 0;
        return probe(key, idx) ? &slotAt(idx).val : nullptr;
    }

    bool contains(const K &key) const { return find(key) != nullptr; }
    std::size_t count(const K &key) const { return contains(key) ? 1 : 0; }

    /** Get (default-constructing on demand) the value for @p key. */
    V &
    operator[](const K &key)
    {
        std::size_t idx = 0;
        if (capacity_ && probe(key, idx))
            return slotAt(idx).val; // hit: no rehash, references stay valid
        reserveForInsert(key, idx);
        ::new (&slotAt(idx)) Slot{key, V()};
        used_[idx] = 1;
        ++size_;
        return slotAt(idx).val;
    }

    /**
     * Insert (key, value); overwrites an existing mapping.
     * @return reference to the stored value.
     */
    template <typename VV>
    V &
    insert(const K &key, VV &&value)
    {
        std::size_t idx = 0;
        if (capacity_ && probe(key, idx)) {
            slotAt(idx).val = std::forward<VV>(value);
        } else {
            reserveForInsert(key, idx);
            ::new (&slotAt(idx)) Slot{key, V(std::forward<VV>(value))};
            used_[idx] = 1;
            ++size_;
        }
        return slotAt(idx).val;
    }

    /** Remove @p key. @return true when it was present. */
    bool
    erase(const K &key)
    {
        std::size_t hole;
        if (!probe(key, hole))
            return false;
        slotAt(hole).~Slot();
        used_[hole] = 0;
        --size_;

        // Backward shift: walk the collision run after the hole and pull
        // back every slot whose ideal bucket lies at or before the hole
        // (cyclically), so probes never hit a gap mid-run.
        std::size_t next = (hole + 1) & mask_;
        while (used_[next]) {
            std::size_t ideal = bucketFor(slotAt(next).key);
            std::size_t curDist = (next - ideal) & mask_;
            std::size_t newDist = (hole - ideal) & mask_;
            if (newDist <= curDist) {
                relocate(next, hole);
                hole = next;
            }
            next = (next + 1) & mask_;
        }
        return true;
    }

    /** Drop every element; keeps the allocated capacity. */
    void
    clear()
    {
        destroyAll();
        if (capacity_)
            std::memset(used_.get(), 0, capacity_);
        size_ = 0;
    }

    /** Ensure capacity for @p n elements without rehashing on the way. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = 16;
        while (want * maxLoadNum < n * maxLoadDen)
            want <<= 1;
        if (want > capacity_)
            rehash(want);
    }

    // -- iteration (order: bucket order; see usage rules) ----------------

    template <bool Const>
    class Iter
    {
        using MapT = std::conditional_t<Const, const FlatMap, FlatMap>;
        using Ref = std::pair<const K &,
                              std::conditional_t<Const, const V &, V &>>;

      public:
        Iter(MapT *m, std::size_t idx) : m_(m), idx_(idx) { skip(); }

        Ref operator*() const
        {
            auto &s = m_->slotAt(idx_);
            return Ref{s.key, s.val};
        }

        Iter &
        operator++()
        {
            ++idx_;
            skip();
            return *this;
        }

        bool operator==(const Iter &o) const { return idx_ == o.idx_; }
        bool operator!=(const Iter &o) const { return idx_ != o.idx_; }

      private:
        void
        skip()
        {
            while (idx_ < m_->capacity_ && !m_->used_[idx_])
                ++idx_;
        }

        MapT *m_;
        std::size_t idx_;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, capacity_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, capacity_); }

  private:
    /** Max load factor 7/8: probe runs stay short, memory stays tight. */
    static constexpr std::size_t maxLoadNum = 7;
    static constexpr std::size_t maxLoadDen = 8;

    Slot &
    slotAt(std::size_t idx)
    {
        return reinterpret_cast<Slot *>(raw_.get())[idx];
    }

    const Slot &
    slotAt(std::size_t idx) const
    {
        return reinterpret_cast<const Slot *>(raw_.get())[idx];
    }

    std::size_t bucketFor(const K &key) const
    {
        return Hash{}(key)&mask_;
    }

    /**
     * Find @p key's slot. @return true when found (idx = its bucket);
     * false when absent (idx = the empty bucket that ends its run —
     * i.e., the insertion point). Requires capacity_ > 0.
     */
    bool
    probe(const K &key, std::size_t &idx) const
    {
        if (capacity_ == 0) {
            idx = 0;
            return false;
        }
        std::size_t i = bucketFor(key);
        while (used_[i]) {
            if (slotAt(i).key == key) {
                idx = i;
                return true;
            }
            i = (i + 1) & mask_;
        }
        idx = i;
        return false;
    }

    /**
     * Prepare to insert @p key (known absent): grow if the insert would
     * exceed the max load factor, and (re)compute its insertion point.
     */
    void
    reserveForInsert(const K &key, std::size_t &idx)
    {
        if ((size_ + 1) * maxLoadDen > capacity_ * maxLoadNum) {
            rehash(capacity_ ? capacity_ * 2 : 16);
            probe(key, idx);
        }
    }

    void
    rehash(std::size_t new_cap)
    {
        assert((new_cap & (new_cap - 1)) == 0);
        auto old_raw = std::move(raw_);
        auto old_used = std::move(used_);
        std::size_t old_cap = capacity_;

        raw_ = std::make_unique<std::byte[]>(new_cap * sizeof(Slot));
        used_ = std::make_unique<std::uint8_t[]>(new_cap);
        std::memset(used_.get(), 0, new_cap);
        capacity_ = new_cap;
        mask_ = new_cap - 1;

        Slot *old_slots = reinterpret_cast<Slot *>(old_raw.get());
        for (std::size_t i = 0; i < old_cap; ++i) {
            if (!old_used[i])
                continue;
            Slot &s = old_slots[i];
            std::size_t idx = bucketFor(s.key);
            while (used_[idx])
                idx = (idx + 1) & mask_;
            ::new (&slotAt(idx)) Slot(std::move(s));
            used_[idx] = 1;
            s.~Slot();
        }
    }

    /** Move the slot at @p from into the empty bucket @p to. */
    void
    relocate(std::size_t from, std::size_t to)
    {
        ::new (&slotAt(to)) Slot(std::move(slotAt(from)));
        slotAt(from).~Slot();
        used_[to] = 1;
        used_[from] = 0;
    }

    void
    destroyAll()
    {
        if constexpr (!std::is_trivially_destructible_v<Slot>) {
            for (std::size_t i = 0; i < capacity_; ++i) {
                if (used_[i])
                    slotAt(i).~Slot();
            }
        }
    }

    void
    swap(FlatMap &o)
    {
        std::swap(capacity_, o.capacity_);
        std::swap(mask_, o.mask_);
        std::swap(size_, o.size_);
        std::swap(raw_, o.raw_);
        std::swap(used_, o.used_);
    }

    void
    copyFrom(const FlatMap &o)
    {
        reserve(o.size());
        for (const auto &[k, v] : o)
            insert(k, v);
    }

    std::size_t capacity_ = 0;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    std::unique_ptr<std::byte[]> raw_;
    std::unique_ptr<std::uint8_t[]> used_;
};

/** Open-addressing hash set: FlatMap with an empty mapped type. */
template <typename K, typename Hash = FlatHash<K>>
class FlatSet
{
    struct Unit
    {
    };

  public:
    std::size_t size() const { return m_.size(); }
    bool empty() const { return m_.empty(); }
    bool contains(const K &key) const { return m_.contains(key); }
    std::size_t count(const K &key) const { return m_.count(key); }

    /** @return true when @p key was newly inserted. */
    bool
    insert(const K &key)
    {
        std::size_t before = m_.size();
        m_[key];
        return m_.size() != before;
    }

    bool erase(const K &key) { return m_.erase(key); }
    void clear() { m_.clear(); }
    void reserve(std::size_t n) { m_.reserve(n); }

  private:
    FlatMap<K, Unit, Hash> m_;
};

} // namespace ltp

#endif // LTP_SIM_FLAT_MAP_HH
