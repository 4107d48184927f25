// Discrete-event engine.
//
// A min-heap of (time, sequence) keys orders every event; sequence numbers
// make the order total and deterministic.  Fibers interleave with the
// engine: an event typically resumes a fiber, which runs until it charges
// time (and schedules its own continuation) or blocks on a synchronization
// object.
//
// Two kinds of event share the one order:
//
//   * a *fiber event* carries an opaque payload pointer (Machine passes its
//     FiberCtl*) straight to a registered handler — posting one allocates
//     nothing and dispatching one is an indirect call;
//   * a *closure event* carries a SmallFn (see small_fn.hpp).  The closure
//     lives in a side pool of address-stable slots and runs in place; the
//     heap entry holds only the slot's address.
//
// A heap entry is 24 trivially-copyable bytes: the time, a key of
// (seq << 1 | kind) and the payload or slot pointer.  Keeping the kind in
// the key leaves the payload opaque, and since every seq is unique the
// (time, key) order is exactly the (time, seq) order.  Sifting copies three
// words per level and never touches a closure.
//
// Events leave the heap by two paths: run() dispatches either kind, and
// take_fiber_event() lets a blocking fiber pop a fiber event itself and
// switch straight to its target (Machine's direct handoff, DESIGN §4d).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
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
  void post_at(Time t, Action&& fn) {
    if (t < now_) t = now_;
    if (free_slots_.empty()) grow_pool();
    Action* slot = free_slots_.back();
    free_slots_.pop_back();
    *slot = std::move(fn);
    push(Entry{t, seq_++ << 1, slot});
  }

  /// Schedule `fn` after a delay.
  void post_in(Time delay, Action&& fn) {
    post_at(now_ + delay, std::move(fn));
  }

  /// Schedule a fiber event at absolute time `t` (>= now).  `payload` must
  /// be non-null; it is handed verbatim to the registered fiber handler.
  /// Zero-allocation: the ~99% case on the simulator hot path.
  void post_fiber_at(Time t, void* payload) {
    assert(fiber_fn_ != nullptr && "post_fiber_at: no fiber handler set");
    assert(payload != nullptr);
    if (t < now_) t = now_;
    ++fiber_events_;
    push(Entry{t, (seq_++ << 1) | kFiberKind, payload});
  }

  /// Run until the event queue drains or `stop()` is called.
  /// Returns the final simulated time.
  Time run() {
    stopped_ = false;
    while (!heap_.empty() && !stopped_) {
      const Entry ev = pop_min();
      now_ = ev.t;
      ++dispatched_;
      if (ev.key & kFiberKind) {
        --fiber_events_;
        fiber_fn_(fiber_ctx_, ev.p);
      } else {
        // Runs in its slot: posts made by the closure take other slots, and
        // the slot returns to the pool once it is done (or has thrown).
        Action* slot = static_cast<Action*>(ev.p);
        SlotRelease release{this, slot};
        (*slot)();
      }
    }
    return now_;
  }

  /// Pop the earliest event and return its payload when it is a fiber
  /// event and no stop is requested; otherwise leave the heap alone and
  /// return nullptr.  A taken event counts as dispatched and advances the
  /// clock exactly as run() would; the caller delivers it.
  void* take_fiber_event() {
    if (heap_.empty() || stopped_ || !(heap_.front().key & kFiberKind))
      return nullptr;
    const Entry ev = pop_min();
    now_ = ev.t;
    ++dispatched_;
    --fiber_events_;
    return ev.p;
  }

  /// post_fiber_at(t, payload) then take_fiber_event(), fused.  When the
  /// new event is itself the earliest, `payload` comes straight back and
  /// the heap is untouched; when a fiber event precedes it, the new event
  /// takes the popped root's place in a single sift-down.
  void* post_fiber_and_take(Time t, void* payload) {
    assert(fiber_fn_ != nullptr && "post_fiber_at: no fiber handler set");
    assert(payload != nullptr);
    if (t < now_) t = now_;
    const Entry ev{t, (seq_++ << 1) | kFiberKind, payload};
    if (!stopped_) {
      if (heap_.empty() || before(ev, heap_.front())) {
        now_ = t;
        ++dispatched_;
        return payload;
      }
      if (heap_.front().key & kFiberKind) {
        const Entry min = heap_.front();
        sift_down(ev);
        now_ = min.t;
        ++dispatched_;
        return min.p;
      }
    }
    ++fiber_events_;
    push(ev);
    return nullptr;
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

  /// Host-side count of events dispatched since construction, by run() or
  /// take_fiber_event() (observational; feeds the host-performance benches).
  std::uint64_t events_dispatched() const { return dispatched_; }

 private:
  static constexpr std::uint64_t kFiberKind = 1;
  static constexpr std::size_t kSlotsPerChunk = 64;

  struct Entry {
    Time t;
    std::uint64_t key;  ///< seq << 1 | kind
    void* p;            ///< fiber payload, or the closure's Action slot
  };

  /// (time, key) as one 128-bit integer: a single wide compare.
  static unsigned __int128 order(const Entry& e) {
    return (static_cast<unsigned __int128>(e.t) << 64) | e.key;
  }
  static bool before(const Entry& a, const Entry& b) {
    return order(a) < order(b);
  }

  struct SlotRelease {
    Engine* e;
    Action* slot;
    ~SlotRelease() {
      slot->reset();
      e->free_slots_.push_back(slot);
    }
  };

  void grow_pool() {
    chunks_.push_back(std::make_unique<Action[]>(kSlotsPerChunk));
    Action* chunk = chunks_.back().get();
    // Reverse order, so slots are handed out in address order.
    for (std::size_t i = kSlotsPerChunk; i-- > 0;)
      free_slots_.push_back(chunk + i);
  }

  // Binary min-heap over (t, key), sifting into a hole.  The sift-down
  // picks the smaller child arithmetically rather than by branch: which
  // child wins is a coin flip the predictor cannot learn.
  void push(Entry ev) {
    std::size_t i = heap_.size();
    heap_.push_back(ev);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(ev, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  Entry pop_min() {
    const Entry min = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return min;
  }

  /// Put `ev` in place of the root and restore the heap order.
  void sift_down(Entry ev) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n) child += before(heap_[child + 1], heap_[child]);
      if (!before(heap_[child], ev)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = ev;
  }

  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Action[]>> chunks_;  // closure slots
  std::vector<Action*> free_slots_;
  std::size_t fiber_events_ = 0;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  bool stopped_ = false;
  FiberHandler fiber_fn_ = nullptr;
  void* fiber_ctx_ = nullptr;
};

}  // namespace bfly::sim
