// Small-buffer-optimized move-only closure for the event engine.
//
// The discrete-event hot loop used to pay a std::function heap allocation
// per posted event.  Engine events are now typed (fiber resumes carry a raw
// pointer, see engine.hpp); the closures that remain — kernel timeouts,
// fault kills, test bodies — are small lambdas, so SmallFn stores anything
// up to kInlineBytes in place and only falls back to the heap for outsized
// captures.  Move-only, like the engine's ownership of its events.
//
// The engine moves a closure once, into a pool slot, and runs it there, so
// the move is cheap rather than hot: a trivially-copyable inline callable
// (virtually every lambda the runtime layers post — captures of pointers
// and integers) and the heap-fallback pointer both relocate with a plain
// memcpy of the buffer; only a non-trivial inline callable pays an
// indirect call to its move constructor.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bfly::sim {

class SmallFn {
 public:
  /// Covers every closure the runtime layers post today (the largest is
  /// Kernel's dual-queue timeout at three words, see kernel.cpp).
  /// Outsized captures fall back to the heap.
  static constexpr std::size_t kInlineBytes = 24;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): callsites pass lambdas.
  SmallFn(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
      trivial_relocate_ = std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>;
      // Trivial relocation memcpys the whole buffer, so the tail past the
      // callable must be initialized (sizes are compile-time constants; this
      // folds to at most two stores).
      if (trivial_relocate_ && sizeof(Fn) < kInlineBytes)
        std::memset(buf_ + sizeof(Fn), 0, kInlineBytes - sizeof(Fn));
    } else {
      Fn* p = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(p));
      std::memset(buf_ + sizeof(p), 0, kInlineBytes - sizeof(p));
      ops_ = &HeapOps<Fn>::ops;
      trivial_relocate_ = true;  // only the owning pointer moves
    }
  }

  SmallFn(SmallFn&& o) noexcept
      : ops_(o.ops_), trivial_relocate_(o.trivial_relocate_) {
    if (ops_ != nullptr) relocate_from(o);
    o.ops_ = nullptr;
  }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      trivial_relocate_ = o.trivial_relocate_;
      if (ops_ != nullptr) relocate_from(o);
      o.ops_ = nullptr;
    }
    return *this;
  }
  ~SmallFn() { reset(); }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// Destroy the callable, leaving this SmallFn empty.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* p);
    /// Move-construct the callable into `dst` and destroy it at `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* p);
  };

  template <typename Fn>
  static constexpr bool fits() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* dst, void* src) {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* get(void* p) {
      Fn* f;
      std::memcpy(&f, p, sizeof(f));
      return f;
    }
    static void invoke(void* p) { (*get(p))(); }
    static void relocate(void* dst, void* src) {
      std::memcpy(dst, src, sizeof(Fn*));
    }
    static void destroy(void* p) { delete get(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void relocate_from(SmallFn& o) {
    if (trivial_relocate_) {
      std::memcpy(buf_, o.buf_, kInlineBytes);  // fixed size: vector copies
    } else {
      ops_->relocate(buf_, o.buf_);
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes];
  bool trivial_relocate_ = false;
};

}  // namespace bfly::sim
