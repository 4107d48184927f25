// The simulated Butterfly machine.
//
// A Machine owns the event engine, the switch fabric, one memory module per
// node, and every fiber spawned onto a node.  All simulated code interacts
// with the hardware through this class:
//
//   * charge()/compute()/flops() advance the calling fiber's CPU time;
//   * read()/write()/atomic ops are timed memory transactions against the
//     owning node's module (queueing behind a busy module models the
//     "remote references steal memory cycles" effect from the paper);
//   * block_copy() models the PNC's microcoded block transfer;
//   * park()/wakeup() are the primitives the Chrysalis scheduler builds
//     blocking synchronization from.
//
// The engine is single-threaded and ties are sequence-numbered, so a run is
// a pure function of (config, program) — the property Instant Replay's
// verification tests depend on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/fiber.hpp"
#include "sim/observe.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/switch_fabric.hpp"
#include "sim/time.hpp"

namespace bfly::sim {

/// Always zero: see Machine::parallel_stats().
struct ParallelRunStats {
  std::uint64_t windows = 0;
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t run_wall_ns = 0;
};

class Machine {
 public:
  /// `faults` scripts hardware failures for this run; the default empty plan
  /// injects nothing and leaves the event stream byte-identical to a machine
  /// built before fault injection existed.
  explicit Machine(MachineConfig cfg, FaultPlan faults = {});

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return cfg_; }
  Engine& engine() { return engine_; }
  Time now() const { return engine_.now(); }
  std::uint32_t nodes() const { return cfg_.nodes; }
  /// Deterministic RNG stream.
  Rng& rng() { return rng_; }
  MachineStats& stats() { return stats_; }
  SwitchFabric& fabric() { return fabric_; }

  // --- Fibers ---------------------------------------------------------------

  /// Create a fiber bound to `node`, runnable immediately (resumed by the
  /// engine at the current time unless `start_delay` is given).
  Fiber* spawn(NodeId node, std::function<void()> body,
               std::string name = {}, Time start_delay = 0);

  /// Create a fiber that stays parked until the first wakeup() — used by
  /// schedulers that control dispatch themselves.
  Fiber* spawn_parked(NodeId node, std::function<void()> body,
                      std::string name = {});

  /// Node of the currently executing fiber.
  NodeId current_node() const;
  /// Node of an arbitrary live fiber.
  NodeId node_of(Fiber* f) const;

  /// Run the machine until no events remain.  Returns final time.
  Time run();

  /// True when the last run() ended with live-but-blocked fibers: the
  /// simulated program deadlocked.  Moviola uses this plus the wait-for
  /// edges recorded by the synchronization layers.
  bool deadlocked() const { return live_count_ != 0; }
  std::vector<Fiber*> blocked_fibers() const;
  /// True while `f` has not finished or been reclaimed.  Probes
  /// hold raw Fiber pointers across kill-unwinds (which skip the wake
  /// hooks); this lets them prune the dead before dereferencing.  A reused
  /// address can alias a new fiber — fine for diagnosis, as the new
  /// fiber's name and state replace the old.
  bool fiber_live(Fiber* f) const { return fibers_.count(f) != 0; }

  /// True when live fibers remain but none has a resume scheduled: the
  /// event heap has quiesced to closure events (timers, watchdogs) only,
  /// so no fiber can ever run again unless a timer wakes it.  Meaningful
  /// from engine context (a posted closure); a running fiber is by
  /// definition not quiescent.  This is the trigger condition for
  /// bfly::moviola's deadlock analysis.
  bool quiescent() const {
    return live_count_ != 0 && engine_.pending_fiber_events() == 0;
  }
  /// Fibers spawned and not yet finished.
  std::size_t live_fibers() const { return live_count_; }

  /// Host-side substrate cost of the run so far (events, resumes,
  /// handoffs, switch-free charges).  Observational; see sim/stats.hpp.
  HostPerf host_perf() const {
    return HostPerf{engine_.events_dispatched(), fiber_resumes_, handoffs_,
                    fastpath_charges_, cfg_.host_fastpath};
  }
  /// True when charge() may take the switch-free fast path this run
  /// (MachineConfig::host_fastpath).
  bool fastpath_enabled() const { return cfg_.host_fastpath; }

  // Constants kept only because perfbench's parsim.* rows read them; the
  // parallel host engine was removed (DESIGN.md §4f).
  std::uint32_t host_shards() const { return 1; }
  const char* parallel_forfeit() const { return "serial engine"; }
  ParallelRunStats parallel_stats() const { return {}; }

  // --- Faults ----------------------------------------------------------------

  const FaultPlan& faults() const { return faults_; }
  /// True when any fault can occur this run (plan non-empty or a kill was
  /// scheduled programmatically).  Layers may use this to gate recovery
  /// bookkeeping so healthy runs stay byte-identical to pre-fault builds.
  bool faults_possible() const { return fault_checks_; }

  bool node_alive(NodeId n) const { return !node_dead_[n]; }
  std::uint32_t dead_nodes() const { return dead_nodes_count_; }

  /// True when a timed reference from `a` to `b` could currently complete:
  /// no active partition window cuts the pair and the switch fabric still
  /// has a healthy path (default or detour).  Says nothing about whether
  /// `b` is alive — dead and unreachable are distinct conditions (see
  /// NodeDeadError vs NetUnreachableError).  Host-side and uncharged, so
  /// recovery layers can consult ground truth without perturbing the run.
  bool reachable(NodeId a, NodeId b) const;

  /// Register a callback fired in engine context when a partition window
  /// heals (argument: index into faults().partitions).  Registering posts
  /// the plan's heal events, which keeps the engine running until the last
  /// subscribed heal — layers that reconcile on heal (bfly::serve) want
  /// exactly that.  Returns a handle for remove_observer.
  std::uint64_t on_partition_heal(std::function<void(std::size_t)> fn);

  /// Gray-failure stretch for `n`'s memory module at the current simulated
  /// time: 1.0 when healthy, the plan's factor inside a slow window.  Layers
  /// that model their own service stages off the memory path (Bridge's disk
  /// controller) multiply their charges by this so a slow node is slow all
  /// the way down.  Exact 1.0 (and zero float math) when the plan has no
  /// slow windows.
  double slow_factor(NodeId n) const;

  /// Schedule `node` to die at absolute simulated time `at` (in addition to
  /// any kills in the plan).  Must be called before run() reaches `at`.
  /// A silent kill skips the crash broadcast (see on_node_crash).
  void kill_node(NodeId node, Time at, bool silent = false);

  /// Register a callback invoked in engine context the moment a node dies,
  /// before the node's fibers unwind.  Observers run in registration order
  /// (the Kernel registers first, so higher layers see consistent kernel
  /// state).  They must not perform timed operations.  Returns a handle for
  /// remove_observer; holders that can die before the Machine must
  /// unregister in their destructor.
  ///
  /// Death observers model the simulator's own bookkeeping: they fire for
  /// every kill, silent or not (the scheduler must stop dispatching a dead
  /// node's processes regardless of who heard the crash).
  std::uint64_t on_node_death(std::function<void(NodeId)> fn);

  /// Like on_node_death, but models the machine-check broadcast peers
  /// observe: crash observers do NOT fire for silent kills.  Recovery
  /// layers (Uniform System, net::Mesh, Bridge) subscribe here; a silent
  /// death reaches them only through a failure detector (bfly::rescue) or a
  /// reference that touches the corpse.  Crash observers run after every
  /// death observer, still before the node's fibers unwind.
  std::uint64_t on_node_crash(std::function<void(NodeId)> fn);

  /// Drop the death, crash or heal subscription `id` (no-op when unknown).
  void remove_observer(std::uint64_t id);

  // --- Time ------------------------------------------------------------------

  /// Consume `ns` of CPU time on the calling fiber.
  void charge(Time ns);
  /// Consume integer-op time (`n` register-level operations).
  void compute(std::uint64_t n) { charged_compute(n * cfg_.int_op_ns); }
  /// Consume floating-point time.
  void flops(std::uint64_t n) { charged_compute(n * cfg_.flop_ns); }
  /// Consume an explicit amount of compute time (tracked in NodeStats).
  void charged_compute(Time ns);
  /// Block the calling fiber until absolute time `t`.
  void sleep_until(Time t);

  /// Block the calling fiber until another fiber calls wakeup() on it.
  void park();
  /// Make a parked fiber runnable after `delay`.  Safe to call from the
  /// engine or any fiber; no-op if the fiber already finished.
  void wakeup(Fiber* f, Time delay = 0);

  /// Discard a parked fiber that will never run again (e.g. a suspended
  /// coroutine at teardown).  The fiber must not have a pending resume.
  void abandon(Fiber* f);

  // --- Physical memory --------------------------------------------------------

  /// First-fit allocation in `node`'s memory.  Throws SimError when the
  /// node is exhausted.  Untimed (the OS layer charges its own costs).
  PhysAddr alloc(NodeId node, std::size_t bytes);
  void free(PhysAddr addr, std::size_t bytes);
  /// Bytes currently allocated on a node.
  std::size_t allocated_on(NodeId node) const;
  /// Blocks on a node's free list (allocator introspection for tests:
  /// coalescing must keep this bounded under alloc/free churn).
  std::size_t free_blocks_on(NodeId node) const {
    return node_[node].free_list.size();
  }

  /// Timed single reference.  sizeof(T) must be <= 8.
  template <typename T>
  T read(PhysAddr a) {
    static_assert(sizeof(T) <= 8);
    reference(a, word_count(sizeof(T)), MemOp::kRead);
    T v;
    std::memcpy(&v, raw_mut(a, sizeof(T)), sizeof(T));
    return v;
  }

  template <typename T>
  void write(PhysAddr a, T v) {
    static_assert(sizeof(T) <= 8);
    reference(a, word_count(sizeof(T)), MemOp::kWrite);
    std::memcpy(raw_mut(a, sizeof(T)), &v, sizeof(T));
  }

  /// PNC atomic operations (linearized at completion time).  When switch
  /// combining is armed (MachineConfig::switch_combining + contention
  /// modelling), concurrent fetch_add_u32 calls on one word may merge at a
  /// switch stage instead of queueing at the home module — see
  /// SwitchFabric::combine_add; the data result is identical either way.
  std::uint32_t fetch_add_u32(PhysAddr a, std::uint32_t delta);
  std::uint32_t fetch_or_u32(PhysAddr a, std::uint32_t bits);
  /// Atomically set the word to 1; returns the previous value.
  std::uint32_t test_and_set(PhysAddr a);
  /// Atomic exchange: store `v`, return the previous value.
  std::uint32_t swap_u32(PhysAddr a, std::uint32_t v);
  /// Compare-and-swap: store `desired` iff the word equals `expect`.
  /// Returns the previous value (== expect exactly when the store landed).
  std::uint32_t cas_u32(PhysAddr a, std::uint32_t expect,
                        std::uint32_t desired);

  /// Microcoded block transfer between physical locations.  Charged as one
  /// round trip plus a per-word streaming cost; occupies the source and
  /// destination modules while streaming.
  void block_copy(PhysAddr dst, PhysAddr src, std::size_t bytes);
  /// Block transfer into the calling fiber's private (register/stack) space.
  void block_read(void* host_dst, PhysAddr src, std::size_t bytes);
  void block_write(PhysAddr dst, const void* host_src, std::size_t bytes);

  /// Charge `n` back-to-back word references to `target` in a single event
  /// (used by tight inner loops; contention is accounted in aggregate).
  void access_words(PhysAddr a, std::uint32_t n);

  // --- Probes (correctness tooling and tracing; see sim/observe.hpp) --------
  // All hooks are host-side and uncharged: attaching probes leaves the
  // simulated event stream byte-identical to a bare run.  Per-operation
  // annotation sites (a reference, a send, a wait) pass string literals and
  // integers only, or test probed() before building anything else, so an
  // unprobed run does no work there beyond one empty-list test and
  // allocates nothing.  Setup-time sites (the sync and Uniform System
  // constructors labelling their cells) may format names unconditionally.

  /// Subscribe `p` to every hook, after the probes already attached.  A
  /// probe attached from inside a hook starts with the next hook.
  void attach(Probe* p) { probes_.push_back(p); }
  /// Unsubscribe `p` (no-op when not attached).  Safe from inside a hook,
  /// including `p`'s own: the remaining probes keep receiving.
  void detach(Probe* p);
  /// Whether any probe is attached: the guard for annotation sites whose
  /// arguments cost something to build (a formatted label).
  bool probed() const { return !probes_.empty(); }

  // Kept only because perfbench's LayerSink reads them: one probe slot
  // managed through attach()/detach().
  void set_trace_sink(TraceSink* s) {
    if (trace_sink_ != nullptr) detach(trace_sink_);
    trace_sink_ = s;
    if (s != nullptr) attach(s);
  }
  TraceSink* trace_sink() const { return trace_sink_; }

  /// Publish a happens-before release/acquire edge on `chan` for the
  /// calling context.  Synchronization layers call these from the fiber
  /// performing the operation.
  void observe_release(std::uint64_t chan) {
    publish([](Probe& p, auto... x) { p.on_release(Fiber::current(), x...); },
            chan);
  }
  void observe_acquire(std::uint64_t chan) {
    publish([](Probe& p, auto... x) { p.on_acquire(Fiber::current(), x...); },
            chan);
  }
  /// The calling fiber acquired (`held`) or released spin lock `lock`.
  void observe_hold(std::uint64_t lock, bool held) {
    publish([](Probe& p, auto... x) { p.on_hold(Fiber::current(), x...); },
            lock, held);
  }
  /// Name a range of physical memory for diagnostic reports.
  void label_memory(PhysAddr a, std::size_t bytes, std::string name) {
    publish([](Probe& p, auto... x) { p.on_label(x...); }, a, bytes,
            std::move(name));
  }
  /// The calling fiber is about to block on `chan`.
  void observe_block(std::uint64_t chan, WaitKind kind) {
    publish([](Probe& p, auto... x) { p.on_block(Fiber::current(), x...); },
            chan, kind);
  }
  /// The calling fiber returned from a blocking wait on `chan`.
  void observe_wake(std::uint64_t chan, WakeReason why) {
    publish([](Probe& p, auto... x) { p.on_wake(Fiber::current(), x...); },
            chan, why);
  }
  /// A post to `chan` with the given delivery outcome.
  void observe_post(std::uint64_t chan, PostOutcome out) {
    publish([](Probe& p, auto... x) { p.on_post(Fiber::current(), x...); },
            chan, out);
  }
  /// One failed spin probe on `lock` by the calling fiber.
  void observe_spin(std::uint64_t lock) {
    publish([](Probe& p, auto... x) { p.on_spin(Fiber::current(), x...); },
            lock);
  }
  /// Open a span on the calling context's track.
  void trace_begin(const char* cat, const char* name, std::uint64_t arg = 0) {
    publish([this](Probe& p, auto... x) {
      p.on_span_begin(Fiber::current(), trace_node(), x...);
    }, cat, name, arg);
  }
  /// Close the innermost open span on the calling context's track.
  void trace_end() {
    publish([this](Probe& p) {
      p.on_span_end(Fiber::current(), trace_node());
    });
  }
  /// A point event on the calling context's track.
  void trace_instant(const char* cat, const char* name,
                     std::uint64_t arg = 0) {
    publish([this](Probe& p, auto... x) {
      p.on_instant(Fiber::current(), trace_node(), x...);
    }, cat, name, arg);
  }

  /// Charges issued from inside a probe hook.  The hooks' contract is
  /// strictly host-side work; a nonzero count means a probe perturbed the
  /// run it was watching (the blocking-discipline lint reports it).
  std::uint64_t hook_charges() const { return hook_charges_; }

  // --- Untimed backdoor (tests, tooling, result extraction) -------------------
  template <typename T>
  T peek(PhysAddr a) const {
    T v;
    std::memcpy(&v, raw_mut(a, sizeof(T)), sizeof(T));
    return v;
  }
  template <typename T>
  void poke(PhysAddr a, T v) {
    std::memcpy(raw_mut(a, sizeof(T)), &v, sizeof(T));
  }
  void peek_bytes(void* dst, PhysAddr a, std::size_t n) const {
    std::memcpy(dst, raw_mut(a, n), n);
  }
  void poke_bytes(PhysAddr a, const void* src, std::size_t n) {
    std::memcpy(raw_mut(a, n), src, n);
  }

 private:
  /// RAII marker bracketing every probe-hook dispatch: charge() counts
  /// charges issued while one is live (hook_charges_), turning "charged
  /// work inside an uncharged hook" from a silent heisenbug into a lint.
  class HookScope {
   public:
    explicit HookScope(Machine* m) : m_(m) { ++m_->hook_depth_; }
    ~HookScope() { --m_->hook_depth_; }
    HookScope(const HookScope&) = delete;
    HookScope& operator=(const HookScope&) = delete;

   private:
    Machine* m_;
  };

  /// The one dispatch path: `hook(probe, args...)` for every attached
  /// probe, in attach order.  An unprobed run pays the inline empty test
  /// only: arguments travel by value and the hook computes the calling
  /// context (Fiber::current(), trace_node()) itself, so nothing is
  /// evaluated or stored before the test.
  template <typename Hook, typename... A>
  void publish(Hook hook, A... args) {
    if (!probes_.empty()) [[unlikely]] publish_all(hook, args...);
  }
  template <typename Hook, typename... A>
  [[gnu::noinline]] void publish_all(Hook hook, A... args) {
    {
      HookScope h(this);
      // Probes attached by a hook join at the next dispatch; ones detached
      // by a hook leave a null slot until the outermost dispatch ends.
      const std::size_t n = probes_.size();
      for (std::size_t i = 0; i < n; ++i)
        if (Probe* p = probes_[i]) hook(*p, args...);
    }
    if (hook_depth_ == 0) std::erase(probes_, nullptr);
  }

  struct FiberCtl {
    std::unique_ptr<Fiber> fiber;
    NodeId node = 0;
    bool resume_pending = false;
    bool killed = false;  // node died; unwind via FiberKill at next yield
    // Intrusive links for the live list (spawned and not yet finished), in
    // spawn order.  O(1) reap instead of the O(live) vector erase; order is
    // part of the deterministic contract (do_kill unwinds in spawn order).
    FiberCtl* live_prev = nullptr;
    FiberCtl* live_next = nullptr;
  };
  struct FreeBlock {
    std::uint32_t offset;
    std::uint32_t size;
  };
  struct Node {
    std::vector<std::uint8_t> mem;   // grown lazily up to memory_per_node
    std::vector<FreeBlock> free_list;
    std::uint32_t high_water = 0;    // bytes ever touched
    std::size_t allocated = 0;
    Time module_busy_until = 0;
  };

  static std::uint32_t word_count(std::size_t bytes) {
    return static_cast<std::uint32_t>((bytes + 3) / 4);
  }

  /// One timed memory transaction as the shared path (admit, time_txn,
  /// settle; see machine.cpp) sees it.  The three steps are inline and
  /// defined in machine.cpp, their only user, so each operation's body
  /// compiles to one straight path.  The defaults describe one plain
  /// reference of `words` words.
  struct Txn {
    NodeId req;                    ///< requesting node, from admit()
    PhysAddr a;                    ///< where the head reference goes
    std::uint32_t words;           ///< words reported to probes
    MemOp op;
    std::uint32_t head_words = words;  ///< module services of the head
    std::uint32_t refs = 1;        ///< references counted to the requester
    bool remote = req != a.node;   ///< counted remote rather than local
    bool serviced = true;          ///< remote refs count at a.node too
    bool faults = true;            ///< a memory fault can void it
  };
  /// Validate a transaction from the calling fiber to `home` and `home2`
  /// (equal for one-module operations): raises SimError on a wild node,
  /// then NodeDeadError / NetUnreachableError after charging the failed
  /// attempt.  Returns the requesting node.
  inline NodeId admit(NodeId home, NodeId home2);
  /// Time the head reference and account for it; returns its completion
  /// time and stores its queueing in `*q`.  Does not charge.
  inline Time time_txn(const Txn& t, Time* q);
  /// Charge the requester `d`, draw a memory fault when `t.faults`, then
  /// report the access: the caller moves the data after this returns.
  inline void settle(const Txn& t, Time d);
  /// Perform + charge one reference of `words` words to a.node.
  void reference(PhysAddr a, std::uint32_t words, MemOp op);
  /// The fetch_add reference path with switch combining armed: either
  /// merges into an in-flight add's window or leads a new transaction and
  /// opens one.  Charged like reference(a, 1, kAtomic).
  void combining_fetch_add_reference(PhysAddr a);
  /// The one read-modify-write body: a timed atomic reference (combining
  /// when `combine`), then the word becomes next(old); returns old.
  template <typename Next>
  std::uint32_t rmw(PhysAddr a, bool combine, Next next);
  /// The one streaming body behind block_copy/block_read/block_write; a
  /// null `dst` or `src` is the calling fiber's private memory at
  /// `host_dst` / `host_src`.  Forced inline, so each caller's copy folds
  /// its null tests away as the hand-written bodies did.
  [[gnu::always_inline]] inline void stream(const PhysAddr* dst, const PhysAddr* src, std::size_t bytes,
              void* host_dst, const void* host_src);
  /// Report one access as its data moves (uncharged).
  void observe_access(PhysAddr a, std::uint32_t words, MemOp op,
                      NodeId requester) {
    publish([](Probe& p, auto... x) { p.on_access(Fiber::current(), x...); },
            requester, a, words, op);
  }
  /// Completion time of a reference departing now; updates the home
  /// module's occupancy but does not charge.
  Time reference_finish(NodeId requester, NodeId home, std::uint32_t words,
                        Time* queue_ns);
  /// Report one issued reference with its contention share (uncharged;
  /// on_access cannot see queue time).
  void trace_reference(NodeId requester, NodeId home, std::uint32_t words,
                       Time queue_ns, MemOp op) {
    publish([](Probe& p, auto... x) { p.on_reference(x...); }, requester,
            home, words, queue_ns, op, engine_.now());
  }
  /// Node of the calling context for trace events (kTraceHostNode when no
  /// fiber is running).
  NodeId trace_node() const;

  /// Backing bytes of [a, a + n), grown on demand (the backing is mutable:
  /// growing it is not a simulated effect, so untimed peeks may grow it).
  std::uint8_t* raw_mut(PhysAddr a, std::size_t n) const;
  void ensure_backing(Node& nd, std::size_t end) const;

  FiberCtl* ctl(Fiber* f);
  /// Control block of the currently executing fiber, or nullptr from engine
  /// context.  One pointer compare on the hot path: cur_ctl_ is maintained
  /// around every resume, and the map lookup only backstops foreign fibers
  /// (a fiber of another Machine, or one driven outside this engine).
  FiberCtl* current_ctl() const {
    Fiber* f = Fiber::current();
    if (f == nullptr) return nullptr;
    if (cur_ctl_ != nullptr && cur_ctl_->fiber.get() == f) return cur_ctl_;
    auto it = fibers_.find(f);
    return it == fibers_.end() ? nullptr
                               : const_cast<FiberCtl*>(&it->second);
  }
  void schedule_resume(FiberCtl* c, Time at);
  /// Trampoline for the engine's typed fiber events (see Engine::
  /// set_fiber_handler): `payload` is the FiberCtl* whose resume was
  /// posted (schedule_resume, or charge's fused post).
  static void fiber_event(void* machine, void* payload);
  /// The one place a fiber is dispatched, from the engine (fiber events,
  /// kill unwinds) or from a blocking fiber (handoff): clears the pending
  /// resume, counts it, maintains cur_ctl_, and — when control comes back
  /// to the engine — reaps the fiber that came back if it finished.
  void enter(FiberCtl* c);
  /// Block the calling fiber `c` after the engine handed it `next`, the
  /// payload of the earliest event when that is a fiber event (see
  /// Engine::take_fiber_event): enter that fiber — possibly `c` itself —
  /// or, on nullptr, yield to the engine.  Returns when `c` is resumed.
  void block(FiberCtl* c, void* next);
  void reap(FiberCtl* c);
  void live_link(FiberCtl* c);
  void live_unlink(FiberCtl* c);

  /// Unwind the calling fiber if its node died.  No-op while an exception
  /// is already in flight (yielding mid-unwind would corrupt the fiber).
  void check_kill(FiberCtl* c);
  /// Raise NodeDeadError (after charging the failed round trip) when a
  /// timed operation targets a dead node.
  void check_target(NodeId home);
  void do_kill(NodeId n, bool silent);
  void maybe_mem_fault(NodeId home);
  /// True when an active partition window separates a and b right now.
  bool cut_between(NodeId a, NodeId b) const;
  /// Raise NetUnreachableError (after charging the PNC's futile retry
  /// budget) when a timed operation crosses an active partition.
  void check_reach(NodeId req, NodeId home);
  void fire_heal(std::size_t idx);

  MachineConfig cfg_;
  FaultPlan faults_;
  Engine engine_;
  SwitchFabric fabric_;
  Rng rng_;
  Rng fault_rng_;
  MachineStats stats_;
  mutable std::vector<Node> node_;
  // Fiber* -> control block.  unordered_map gives the pointer stability the
  // engine's typed events and cur_ctl_ rely on; the hot paths never touch
  // it (current_ctl() caches, typed events carry the FiberCtl* directly).
  std::unordered_map<Fiber*, FiberCtl> fibers_;
  FiberCtl* live_head_ = nullptr;  // live fibers, intrusive, spawn order
  FiberCtl* live_tail_ = nullptr;
  std::size_t live_count_ = 0;
  FiberCtl* cur_ctl_ = nullptr;  // control block of the running fiber

  std::uint64_t fiber_resumes_ = 0;
  std::uint64_t handoffs_ = 0;
  std::uint64_t fastpath_charges_ = 0;

  bool fault_checks_ = false;  // any fault possible this run
  bool combining_ = false;     // switch combining armed (fetch_add hot path)
  bool has_slow_ = false;      // plan carries slow-node windows
  std::vector<std::uint8_t> node_dead_;
  std::uint32_t dead_nodes_count_ = 0;
  // Partition windows, precomputed as per-node side maps (0 = unlisted,
  // 1 = side_a, 2 = side_b) for O(1) cut checks on the reference path.
  struct Cut {
    Time start = 0;
    Time heal = 0;
    std::vector<std::int8_t> side;
  };
  std::vector<Cut> cuts_;
  bool has_cuts_ = false;
  // Death, crash and heal subscriptions: one id space, fired by index in
  // registration order.
  template <typename Arg>
  struct Subscription {
    std::uint64_t id;
    std::function<void(Arg)> fn;
  };
  std::vector<Subscription<NodeId>> death_observers_;
  std::vector<Subscription<NodeId>> crash_observers_;
  std::vector<Subscription<std::size_t>> heal_observers_;
  bool heal_events_posted_ = false;
  std::uint64_t next_observer_id_ = 1;
  std::vector<Probe*> probes_;       // attach order; null = detached in hook
  TraceSink* trace_sink_ = nullptr;  // the set_trace_sink() slot
  int hook_depth_ = 0;               // live HookScopes on this host stack
  std::uint64_t hook_charges_ = 0;   // charges issued from inside a hook
};

/// RAII span: begins on construction, ends on destruction — so spans close
/// correctly across early returns, NodeDeadError, and FiberKill unwinds.
class TraceSpan {
 public:
  TraceSpan(Machine& m, const char* cat, const char* name,
            std::uint64_t arg = 0)
      : m_(m) {
    m_.trace_begin(cat, name, arg);
  }
  ~TraceSpan() { m_.trace_end(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Machine& m_;
};

// --- Runtime-layer fault and spin helpers --------------------------------
//
// Every layer above the machine (sync, chrysalis, us, net) retries a
// transient memory fault the way the PNC retried a failed transaction, and
// every busy-wait handles a failed probe the same way.  These are the one
// copy of each rule.

/// Run `op`, retrying a transient MemoryFaultError under `policy`: a faulted
/// try waits policy.backoff(attempt) and tries again; once policy.attempts
/// tries are spent the fault is rethrown.  A zero backoff retries at once —
/// charge(0) would yield and reorder events.  Dead nodes and unreachable
/// peers are not transient and propagate untouched.
template <typename Op>
decltype(auto) retry_transient(Machine& m, const RetryPolicy& policy, Op&& op) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      return op();
    } catch (const MemoryFaultError&) {
      if (attempt + 1 >= policy.attempts) throw;
      if (const Time b = policy.backoff(attempt); b != 0) m.charge(b);
    }
  }
}

/// The policy of a loop that never gives up on a transient fault: wait
/// `probe` (0: not at all) before every retry.  2^32 - 1 tries is past any
/// run's reach.
constexpr RetryPolicy retry_every(Time probe) {
  return RetryPolicy{std::numeric_limits<std::uint32_t>::max(), probe, probe,
                     0.0};
}

/// Run one spin probe; a transient memory fault on it reads as a miss.
template <typename Probe>
bool spin_probe(Probe&& probe) {
  try {
    return probe();
  } catch (const MemoryFaultError&) {
    return false;
  }
}

/// One failed spin probe on `chan`: count it in the primitive's `spins` and
/// in MachineStats::lock_spins, publish it to the probes, charge `wait`,
/// then double `wait` up to `cap` (cap 0: every probe waits the same).
inline void spin_step(Machine& m, std::uint64_t& spins, std::uint64_t chan,
                      Time& wait, Time cap) {
  ++spins;
  ++m.stats().lock_spins;
  m.observe_spin(chan);
  m.charge(wait);
  if (cap != 0) wait = std::min(wait * 2, cap);
}

}  // namespace bfly::sim
