#include "sim/fiber.hpp"

#include <cassert>
#include <cstdlib>
#include <exception>

#if !defined(__x86_64__)
#error "src/sim/fiber.cpp: the fiber stack switch is written for x86-64 SysV only"
#endif

// AddressSanitizer must be told about every stack switch, or its shadow
// memory (and the unwinder's notion of the current stack) stays pointed at
// the previous context — throws and deep frames on fiber stacks then report
// bogus stack-buffer-overflows.  The annotations below follow the protocol
// from <sanitizer/common_interface_defs.h>: announce the destination stack
// before the switch, restore the arriving context's fake stack right after.
#if defined(__SANITIZE_ADDRESS__)
#define BFLY_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BFLY_ASAN_FIBERS 1
#endif
#endif
#if defined(BFLY_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

// The stack switch.  bfly_fiber_switch(save, load) pushes the SysV
// callee-saved state of the departing context — rbx, rbp, r12-r15, the
// MXCSR and the x87 control word — stores rsp in *save, loads rsp from
// `load` and pops the arriving context's state in reverse.  Everything else
// is caller-saved, so a plain call is a complete switch.  The signal mask is
// deliberately not part of a context (saving it would cost a syscall per
// switch): the simulator installs no signal handler and never changes the
// mask, so every context shares one.
//
// A new fiber's stack holds a frame (FirstFrame below) whose return address
// is bfly_fiber_entry.  The entry stub calls the function pointer in r12
// with the Fiber* from rbx, on a 16-byte-aligned stack; .cfi_undefined rip
// marks it as the outermost frame, so unwinders and gdb stop there.
extern "C" {
void bfly_fiber_switch(void** save_sp, void* load_sp);
void bfly_fiber_entry();
}

asm(R"(
  .text
  .globl bfly_fiber_switch
  .hidden bfly_fiber_switch
  .type bfly_fiber_switch, @function
  .p2align 4
bfly_fiber_switch:
  .cfi_startproc
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .cfi_endproc
  .size bfly_fiber_switch, .-bfly_fiber_switch

  .globl bfly_fiber_entry
  .hidden bfly_fiber_entry
  .type bfly_fiber_entry, @function
  .p2align 4
bfly_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %rbx, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size bfly_fiber_entry, .-bfly_fiber_entry
)");

namespace bfly::sim {

namespace {
// The register frame bfly_fiber_switch pops, lowest address first, plus
// the return address its `ret` consumes.
struct FirstFrame {
  std::uint16_t x87_cw;
  std::uint16_t pad0[3];
  std::uint32_t mxcsr;
  std::uint32_t pad1;
  void* r15;
  void* r14;
  void* r13;
  void* r12;  // entry function: Fiber::trampoline
  void* rbx;  // its argument: the Fiber*
  void* rbp;
  void* ret;  // bfly_fiber_entry
};
static_assert(sizeof(FirstFrame) == 72);

// One engine context per host thread: a Machine runs its whole event loop
// on the thread that calls run(), so thread_local lets independent machines
// run on separate host threads (each fiber is only ever resumed from the
// thread that runs its Machine) at a negligible TLS addressing cost.
thread_local Fiber* g_current = nullptr;
thread_local void* g_engine_sp = nullptr;
#if defined(BFLY_ASAN_FIBERS)
// The engine runs on the host thread's own stack; its bounds are learned
// from finish_switch_fiber on arrival in a fiber from the engine.
thread_local void* g_engine_fake_stack = nullptr;
thread_local const void* g_engine_stack_bottom = nullptr;
thread_local std::size_t g_engine_stack_size = 0;
// Whether the context switching into a fiber is the engine (resume) or
// another fiber (switch_to).
thread_local bool g_from_engine = false;
#endif

// Called first thing on arrival in a fiber.  Only an arrival from the
// engine records the departed stack's bounds as the engine's: a fiber that
// arrives from another fiber must leave them alone.
inline void asan_enter_fiber([[maybe_unused]] void* fake_stack) {
#if defined(BFLY_ASAN_FIBERS)
  if (g_from_engine) {
    __sanitizer_finish_switch_fiber(fake_stack, &g_engine_stack_bottom,
                                    &g_engine_stack_size);
  } else {
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
  }
#endif
}
}  // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes,
             std::string name)
    : body_(std::move(body)),
      stack_(new char[stack_bytes]),
      stack_bytes_(stack_bytes),
      name_(std::move(name)) {
  // The frame ends 16-byte aligned, so bfly_fiber_entry's call into
  // trampoline sees the ABI's stack alignment.
  const auto top =
      (reinterpret_cast<std::uintptr_t>(stack_.get()) + stack_bytes) &
      ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<FirstFrame*>(top - sizeof(FirstFrame));
  *frame = FirstFrame{};
  // A new fiber starts with its creator's floating-point control state, as
  // a thread does.
  asm("fnstcw %0" : "=m"(frame->x87_cw));
  asm("stmxcsr %0" : "=m"(frame->mxcsr));
  frame->r12 = reinterpret_cast<void*>(&Fiber::trampoline);
  frame->rbx = this;
  frame->ret = reinterpret_cast<void*>(&bfly_fiber_entry);
  sp_ = frame;
  state_ = State::kRunnable;
}

Fiber::~Fiber() {
  // Destroying a live fiber abandons its stack; that is fine for simulation
  // teardown (Machine deletes all fibers when a run is abandoned).
}

void Fiber::trampoline(Fiber* self) {
  asan_enter_fiber(nullptr);  // first entry: no fake stack to restore
  self->run_body();
}

void Fiber::run_body() {
  try {
    body_();
  } catch (const FiberKill&) {
    // The fiber's node died; the stack has already unwound to here.
  }
  state_ = State::kFinished;
  g_current = nullptr;
#if defined(BFLY_ASAN_FIBERS)
  // nullptr handle: the fiber is done, let ASan free its fake stack.
  __sanitizer_start_switch_fiber(nullptr, g_engine_stack_bottom,
                                 g_engine_stack_size);
#endif
  bfly_fiber_switch(&sp_, g_engine_sp);
  // Never reached.
  std::abort();
}

void Fiber::resume() {
  assert(g_current == nullptr && "resume() must be called from the engine");
  assert(state_ == State::kRunnable || state_ == State::kBlocked);
  state_ = State::kRunning;
  g_current = this;
#if defined(BFLY_ASAN_FIBERS)
  g_from_engine = true;
  __sanitizer_start_switch_fiber(&g_engine_fake_stack, stack_.get(),
                                 stack_bytes_);
#endif
  bfly_fiber_switch(&g_engine_sp, sp_);
#if defined(BFLY_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(g_engine_fake_stack, nullptr, nullptr);
#endif
}

void Fiber::yield_to_engine() {
  Fiber* self = g_current;
  assert(self != nullptr && "yield_to_engine() must be called from a fiber");
  self->state_ = State::kBlocked;
  g_current = nullptr;
#if defined(BFLY_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&self->asan_fake_stack_,
                                 g_engine_stack_bottom, g_engine_stack_size);
#endif
  bfly_fiber_switch(&self->sp_, g_engine_sp);
  asan_enter_fiber(self->asan_fake_stack_);
}

void Fiber::switch_to(Fiber& next) {
  Fiber* self = g_current;
  assert(self != nullptr && "switch_to() must be called from a fiber");
  assert(self != &next);
  assert(next.state_ == State::kRunnable || next.state_ == State::kBlocked);
  self->state_ = State::kBlocked;
  next.state_ = State::kRunning;
  g_current = &next;
#if defined(BFLY_ASAN_FIBERS)
  g_from_engine = false;
  __sanitizer_start_switch_fiber(&self->asan_fake_stack_, next.stack_.get(),
                                 next.stack_bytes_);
#endif
  bfly_fiber_switch(&self->sp_, next.sp_);
  asan_enter_fiber(self->asan_fake_stack_);
}

Fiber* Fiber::current() { return g_current; }

}  // namespace bfly::sim
