// Discrete-event engine.
//
// A single min-heap of (time, sequence, payload) events.  Sequence numbers
// make ordering total and deterministic.  Fibers interleave with the engine:
// an event typically resumes a fiber, which runs until it charges time (and
// schedules its own continuation) or blocks on a synchronization object.
//
// The heap is hand-rolled and the events are typed for host throughput:
//
//   * a *fiber event* carries an opaque payload pointer (Machine passes its
//     FiberCtl*) straight to a registered handler — posting one allocates
//     nothing and dispatching one is an indirect call;
//   * a *closure event* carries a SmallFn, which stores small lambdas
//     inline (see small_fn.hpp) — the std::function-per-event heap
//     allocation of the original engine is gone;
//   * push/pop sift with moves into a hole instead of swapping through
//     priority_queue::top(), which also removes the const_cast the old
//     `std::move(const_cast<Event&>(heap_.top()))` needed.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace bfly::sim {

class Engine {
 public:
  using Action = SmallFn;
  /// Handler for typed fiber events: called as handler(ctx, payload).
  using FiberHandler = void (*)(void* ctx, void* payload);

  Time now() const { return now_; }

  /// Register the handler that dispatches fiber events.  One per engine
  /// (the owning Machine); must be set before the first post_fiber_at.
  void set_fiber_handler(FiberHandler h, void* ctx) {
    fiber_fn_ = h;
    fiber_ctx_ = ctx;
  }

  /// Schedule `fn` at absolute time `t` (>= now).
  void post_at(Time t, Action fn) {
    if (t < now_) t = now_;
    push(Event{t, seq_++, nullptr, std::move(fn)});
  }

  /// Schedule `fn` after a delay.
  void post_in(Time delay, Action fn) { post_at(now_ + delay, std::move(fn)); }

  /// Schedule a fiber event at absolute time `t` (>= now).  `payload` must
  /// be non-null; it is handed verbatim to the registered fiber handler.
  /// Zero-allocation: the ~99% case on the simulator hot path.
  void post_fiber_at(Time t, void* payload) {
    assert(fiber_fn_ != nullptr && "post_fiber_at: no fiber handler set");
    assert(payload != nullptr);
    if (t < now_) t = now_;
    push(Event{t, seq_++, payload, Action{}});
  }

  /// Run until the event queue drains or `stop()` is called.
  /// Returns the final simulated time.
  Time run() {
    stopped_ = false;
    while (!heap_.empty() && !stopped_) {
      Event ev = pop_min();
      now_ = ev.t;
      ++dispatched_;
      if (ev.payload != nullptr) {
        fiber_fn_(fiber_ctx_, ev.payload);
      } else {
        ev.fn();
      }
    }
    return now_;
  }

  /// Stop the run loop after the current event completes.
  void stop() { stopped_ = true; }
  /// True between a stop() call and the end of the current run() loop (the
  /// charge() fast path must not warp past a requested stop).
  bool stop_requested() const { return stopped_; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  /// Pending *fiber* events (scheduled resumes).  When this reaches zero
  /// with live fibers remaining, the heap has quiesced to closure events
  /// (timers, watchdogs) only: no fiber will ever run again unless one of
  /// those closures wakes it — the trigger for Moviola's deadlock view.
  std::size_t pending_fiber_events() const { return fiber_events_; }

  /// Earliest pending event time.  Only valid when !empty(); the charge()
  /// fast path uses it to prove no event can interleave before a resume.
  Time next_time() const {
    assert(!heap_.empty());
    return heap_.front().t;
  }

  /// Advance the clock without dispatching: used before run() to offset a
  /// scenario, and by the charge() fast path to warp over stretches where
  /// no pending event can observably interleave.  Never goes backwards.
  void warp_to(Time t) {
    if (t > now_) now_ = t;
  }

  /// Host-side count of events dispatched by run() since construction
  /// (observational; feeds the host-performance benches).
  std::uint64_t events_dispatched() const { return dispatched_; }

 private:
  struct Event {
    Time t = 0;
    std::uint64_t seq = 0;
    void* payload = nullptr;  ///< non-null: fiber event for fiber_fn_
    Action fn;                ///< otherwise: the closure to run

    bool before(const Event& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };

  // Binary min-heap over (t, seq).  Sift with moves into a hole: one move
  // per level instead of three, and no self-move at the boundaries.
  void push(Event ev) {
    if (ev.payload != nullptr) ++fiber_events_;
    heap_.emplace_back();
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!ev.before(heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(ev);
  }

  Event pop_min() {
    Event min = std::move(heap_.front());
    if (min.payload != nullptr) --fiber_events_;
    Event last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
      const std::size_t n = heap_.size();
      std::size_t i = 0;
      while (true) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
        if (!heap_[child].before(last)) break;
        heap_[i] = std::move(heap_[child]);
        i = child;
      }
      heap_[i] = std::move(last);
    }
    return min;
  }

  std::vector<Event> heap_;
  std::size_t fiber_events_ = 0;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  bool stopped_ = false;
  FiberHandler fiber_fn_ = nullptr;
  void* fiber_ctx_ = nullptr;
};

}  // namespace bfly::sim
