/**
 * @file
 * InlineFunction<Sig, Capacity>: a move-only, allocation-free
 * replacement for std::function (which heap-allocates any capture over
 * 16 bytes on libstdc++).  The callable lives in fixed in-place
 * storage; a capture that does not fit is a compile error, not a
 * silent allocation.  Move-only: a continuation belongs to one closure
 * at a time and is never cloned.
 *
 * InlineCallback (InlineFunction<void()>, 120 bytes) is the event
 * kernel's callback and every waiter's type.  Completions that ride
 * inside events (LoadDone/StoreDone, TxnTable, AGB and NVM callbacks)
 * have smaller capacities so their carriers still fit an event; bulky
 * payloads stay in the component that models the hardware buffer
 * (docs/perf.md has the rules).
 */

#ifndef TSOPER_SIM_CALLBACK_HH
#define TSOPER_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tsoper
{

template <typename Sig, std::size_t Capacity = 120>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    /** In-place storage, in bytes; see canHold<F>. */
    static constexpr std::size_t capacity = Capacity;
    /** Pointer alignment, not max_align_t: nested InlineFunctions then
     *  pack without padding (every capture in src/ is 8-aligned). */
    static constexpr std::size_t alignment = alignof(void *);

    /** Whether a callable of type @p F fits the in-place storage;
     *  the constructor static_asserts this, tests assert both ways. */
    template <typename F>
    static constexpr bool canHold =
        sizeof(std::decay_t<F>) <= capacity &&
        alignof(std::decay_t<F>) <= alignment;

    InlineFunction() = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction(F &&fn) // NOLINT: implicit, mirrors std::function
    {
        static_assert(sizeof(D) <= capacity,
                      "capture exceeds InlineFunction::capacity; keep "
                      "the payload in the component and capture a "
                      "handle (sim/callback.hh)");
        static_assert(alignof(D) <= alignment,
                      "over-aligned capture in InlineFunction");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "InlineFunction requires nothrow-movable "
                      "callables (waiters relocate between lists)");
        ::new (static_cast<void *>(storage_)) D(std::forward<F>(fn));
        ops_ = &OpsImpl<D>::ops;
    }

    InlineFunction(InlineFunction &&other) noexcept
    {
        moveFrom(std::move(other));
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(std::move(other));
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    R
    operator()(Args... args)
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Destroy the held callable, leaving this empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        R (*invoke)(void *self, Args &&...args);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename D>
    struct OpsImpl
    {
        static R
        invoke(void *self, Args &&...args)
        {
            return (*static_cast<D *>(self))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *src, void *dst) noexcept
        {
            ::new (dst) D(std::move(*static_cast<D *>(src)));
            static_cast<D *>(src)->~D();
        }
        static void
        destroy(void *self) noexcept
        {
            static_cast<D *>(self)->~D();
        }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    void
    moveFrom(InlineFunction &&other) noexcept
    {
        if (other.ops_) {
            other.ops_->relocate(other.storage_, storage_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    alignas(alignment) std::byte storage_[capacity];
    const Ops *ops_ = nullptr;
};

/** The event kernel's callback, and every parked waiter's type. */
using InlineCallback = InlineFunction<void()>;

} // namespace tsoper

#endif // TSOPER_SIM_CALLBACK_HH
