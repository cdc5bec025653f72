/**
 * @file
 * SmallFunction: a move-only `void()` callable with small-buffer
 * optimization, the event queue's callback representation.
 *
 * `std::function` heap-allocates any capture list larger than two
 * pointers, which put one malloc/free pair on every scheduled event.
 * SmallFunction stores callables up to `inlineSize` bytes directly in
 * the object (all of the simulator's hot-path lambdas fit) and only
 * falls back to the heap for oversized or throwing-move callables, so
 * the steady-state schedule/execute cycle performs zero allocations.
 *
 * emplace() builds a callable straight into an existing object's
 * buffer, which is how the event queue constructs each callback once,
 * in its event slot, and later invokes it there: a scheduled event is
 * never relocated between the caller's lambda and its execution.
 *
 * Differences from std::function, by design:
 *  - move-only (a copyable wrapper would force copyable captures);
 *  - no target-type introspection;
 *  - invoking an empty SmallFunction is undefined (asserts in debug).
 */

#ifndef LTP_SIM_SMALL_FUNCTION_HH
#define LTP_SIM_SMALL_FUNCTION_HH

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ltp
{

/** Move-only void() callable with inline storage for small captures. */
class SmallFunction
{
  public:
    /**
     * Sized for the largest hot-path lambdas: the cache controller's
     * access-completion captures (this + Addr + Pc + flags + a 32-byte
     * std::function + Tick = 72) and a routed network hop, which
     * carries its 56-byte Message by value (this + 32-bit link + VC +
     * Message = 72). Every network capture that holds a Message
     * static_asserts fitsInline(), so a hop never spills to the heap.
     * The size is also every event slot's and mailbox ring item's.
     */
    static constexpr std::size_t inlineSize = 72;

    /** True iff a callable of type @p Fn is stored inline, with no
     *  heap allocation: it fits the buffer, needs no stricter alignment
     *  than max_align_t and moves without throwing. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineSize &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    SmallFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    SmallFunction(F &&f) // NOLINT: implicit, mirrors std::function
    {
        construct<std::decay_t<F>>(std::forward<F>(f));
    }

    SmallFunction(SmallFunction &&o) noexcept { moveFrom(o); }

    SmallFunction &
    operator=(SmallFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;

    ~SmallFunction() { reset(); }

    void
    operator()()
    {
        assert(ops_ && "invoking an empty SmallFunction");
        ops_->invoke(buf_);
    }

    explicit operator bool() const { return ops_ != nullptr; }

    /**
     * Replace the held callable with @p f, constructed directly in this
     * object's storage: one construction from the caller's argument, no
     * intermediate SmallFunction. A SmallFunction rvalue is move-assigned.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, SmallFunction>) {
            *this = std::forward<F>(f);
        } else {
            static_assert(std::is_invocable_r_v<void, Fn &>,
                          "SmallFunction holds void() callables");
            reset();
            construct<Fn>(std::forward<F>(f));
        }
    }

    /** Destroy the held callable (no-op when empty). */
    void
    reset()
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    /** Manually-managed vtable: one static instance per callable type. */
    struct Ops
    {
        void (*invoke)(void *storage);
        /** Relocate from @p src to @p dst, leaving @p src destroyed. */
        void (*relocate)(void *src, void *dst) noexcept;
        /** Null for trivially destructible inline callables. */
        void (*destroy)(void *storage);
    };

    /** Build an Fn from @p f in buf_ (inline or on the heap). */
    template <typename Fn, typename F>
    void
    construct(F &&f)
    {
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    template <typename Fn>
    static void
    destroyInline(void *s)
    {
        static_cast<Fn *>(s)->~Fn();
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *s) { (*static_cast<Fn *>(s))(); },
        [](void *src, void *dst) noexcept {
            Fn *f = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroyInline<Fn>,
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *s) { (**static_cast<Fn **>(s))(); },
        [](void *src, void *dst) noexcept {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *s) { delete *static_cast<Fn **>(s); },
    };

    void
    moveFrom(SmallFunction &o) noexcept
    {
        if (o.ops_) {
            o.ops_->relocate(o.buf_, buf_);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inlineSize];
    const Ops *ops_ = nullptr;
};

} // namespace ltp

#endif // LTP_SIM_SMALL_FUNCTION_HH
