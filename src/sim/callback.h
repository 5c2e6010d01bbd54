// A small-buffer-optimized callable for the event engine's hot path.
//
// Every simulated packet hop schedules events whose callbacks capture a
// handful of pointers (a component `this`, a shared packet handle, a
// span id).  std::function's inline buffer (16 bytes on libstdc++) is
// too small for those captures, so the pre-overhaul engine paid one
// heap allocation + free per scheduled event — the single largest cost
// in the bench_engine profile.  InlineCallback stores captures up to
// `InlineBytes` directly in the event record (slab storage inside
// EventQueue), falling back to the heap only for oversized captures.
// With `HeapFallback` false an oversized capture is a compile error
// instead, for holders that promise never to allocate.
//
// Differences from std::function, all deliberate:
//   * move-only (events are scheduled once and fired once; copying a
//     callback is always a bug);
//   * void() signature only (the engine's event shape);
//   * no target_type()/target() introspection.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace vini::sim {

template <std::size_t InlineBytes, bool HeapFallback = true>
class InlineCallback {
 public:
  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = inlineOps<Fn>();
    } else {
      static_assert(HeapFallback || sizeof(Fn) == 0,
                    "capture does not fit this callback's inline storage");
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heapOps<Fn>();
    }
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
    other.ops_ = nullptr;
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  InlineCallback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Destroy the held callable (and any state it captured) immediately.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  /// Per-callable-type operation table; one static instance per Fn.
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct into `to` and destroy the source — used by the
    /// move constructor/assignment, so it must not throw.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr bool fitsInline() {
    return sizeof(Fn) <= InlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static const Ops* inlineOps() {
    static constexpr Ops kOps = {
        [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
        [](void* from, void* to) {
          Fn* f = std::launder(reinterpret_cast<Fn*>(from));
          ::new (to) Fn(std::move(*f));
          f->~Fn();
        },
        [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); }};
    return &kOps;
  }

  template <typename Fn>
  static const Ops* heapOps() {
    static constexpr Ops kOps = {
        [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); },
        [](void* from, void* to) {
          Fn** p = std::launder(reinterpret_cast<Fn**>(from));
          ::new (to) Fn*(*p);
        },
        [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); }};
    return &kOps;
  }

  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace vini::sim
