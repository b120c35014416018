// InlineFunction — a move-only std::function replacement with a
// small-buffer guarantee sized by the caller. The simulator creates a few
// closures per simulated event (engine events, gateway deliveries,
// invocation completions); std::function's 16-byte inline buffer holds
// none of them once they capture a RequestRef or more than two words, so
// every one cost a heap allocation. Each alias (EventQueue::Callback,
// Gateway::Deliver, Instance::DoneFn, Server::CompletionFn) is sized for
// the closures src/sim itself builds, and each of those that captures
// more than `this` static_asserts `stores_inline`, so a growing capture
// list fails to compile instead of silently allocating.
//
// Invariants:
//  * A callable whose size and alignment fit the buffer, and whose move
//    constructor is noexcept, lives in the buffer: constructing, moving
//    and destroying the InlineFunction never allocates.
//  * Anything else (callers outside the hot path with larger captures)
//    is boxed on the heap once, at construction, and moves by pointer.
//  * A moved-from InlineFunction is empty.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace gsight::sim {

template <typename Signature, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  /// True when a callable of type F is stored in the inline buffer.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* boxed = new D(std::forward<F>(f));
      std::memcpy(buf_, &boxed, sizeof(boxed));
      ops_ = &kBoxedOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Calls the stored callable; the InlineFunction must not be empty.
  R operator()(Args... args) const {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    /// Move-construct the callable into `dst` and destroy it in `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when destruction is a no-op.
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static R invoke_inline(void* self, Args&&... args) {
    return (*std::launder(static_cast<D*>(self)))(std::forward<Args>(args)...);
  }
  template <typename D>
  static void relocate_inline(void* dst, void* src) noexcept {
    D* from = std::launder(static_cast<D*>(src));
    ::new (dst) D(std::move(*from));
    from->~D();
  }
  template <typename D>
  static void destroy_inline(void* self) noexcept {
    std::launder(static_cast<D*>(self))->~D();
  }
  template <typename D>
  static D* unbox(void* self) {
    D* boxed;
    std::memcpy(&boxed, self, sizeof(boxed));
    return boxed;
  }
  template <typename D>
  static R invoke_boxed(void* self, Args&&... args) {
    return (*unbox<D>(self))(std::forward<Args>(args)...);
  }
  static void relocate_boxed(void* dst, void* src) noexcept {
    std::memcpy(dst, src, sizeof(void*));
  }
  template <typename D>
  static void destroy_boxed(void* self) noexcept {
    delete unbox<D>(self);
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      &invoke_inline<D>, &relocate_inline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &destroy_inline<D>};
  template <typename D>
  static constexpr Ops kBoxedOps{&invoke_boxed<D>, &relocate_boxed,
                                 &destroy_boxed<D>};

  void take(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    ops_->relocate(buf_, other.buf_);
    other.ops_ = nullptr;
  }
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  static_assert(Capacity >= sizeof(void*),
                "the buffer must at least hold a heap box pointer");

  const Ops* ops_ = nullptr;
  alignas(void*) mutable unsigned char buf_[Capacity];
};

}  // namespace gsight::sim
