// Stackful fibers for simulated processors.
//
// Every simulated thread of control (Chrysalis process, Uniform System
// manager, Ant Farm thread, ...) runs on a Fiber.  Fibers are cooperatively
// scheduled by the discrete-event engine on a single host thread, so the
// whole simulation is deterministic.  Code running on a fiber blocks by
// switching back to the engine context; the engine resumes it from a timed
// event.  This lets the ported Butterfly APIs (event_wait, dequeue, ...)
// look exactly like the originals: plain blocking calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace bfly::sim {

/// Thrown inside a fiber whose node has been killed by a FaultPlan.  It is
/// raised from the machine's yield points (charge/park) so the fiber's stack
/// unwinds cleanly — destructors run, host resources are released — and is
/// swallowed by Fiber::run_body.  User code should never catch it (catching
/// by value or by `...` and continuing would keep a dead node's code alive).
struct FiberKill {};

class Fiber {
 public:
  enum class State { kCreated, kRunnable, kRunning, kBlocked, kFinished };

  /// `body` runs on the fiber's own stack the first time it is resumed.
  Fiber(std::function<void()> body, std::size_t stack_bytes,
        std::string name = {});
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the engine context into this fiber.  Returns when the
  /// fiber yields, blocks, or finishes.  Must not be called from a fiber.
  void resume();

  /// Switch from the currently running fiber back to the engine.  The
  /// fiber's state becomes kBlocked until someone calls resume() again.
  static void yield_to_engine();

  /// The fiber currently executing, or nullptr when the engine is running.
  static Fiber* current();

  State state() const { return state_; }
  bool finished() const { return state_ == State::kFinished; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

 private:
  static void trampoline(Fiber* self);
  void run_body();

  std::function<void()> body_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
  // ASan bookkeeping: the fake-stack handle saved while this fiber is
  // switched out (see the fiber-switch annotations in fiber.cpp).  Unused
  // (but harmless) in non-sanitized builds.
  void* asan_fake_stack_ = nullptr;
  // The fiber's saved stack pointer while it is switched out.  The register
  // frame it points at is laid out by the switch routine in fiber.cpp.
  void* sp_ = nullptr;
  State state_ = State::kCreated;
  std::string name_;
};

}  // namespace bfly::sim
