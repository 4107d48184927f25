#include "us/uniform_system.hpp"

#include <algorithm>
#include <cassert>

namespace bfly::us {

namespace {
constexpr std::uint32_t kStopTid = 0xffffffffu;
constexpr std::uint32_t kNoTask = 0xfffffffeu;
// CPU cost of a manager picking up and launching one task beyond the dual
// queue cost itself.
constexpr sim::Time kDispatchOverhead = 15 * sim::kMicrosecond;
// CPU held while searching a free list inside the allocator lock.
constexpr sim::Time kAllocWork = 100 * sim::kMicrosecond;
// How often a wait_idle waiter re-scans a distributed (inexact) counter.
constexpr sim::Time kIdlePollInterval = 250 * sim::kMicrosecond;

// Clears a spin-lock word host-side if an exception (in particular a
// FiberKill unwinding a dying node) escapes while the lock is held.  A dead
// allocator must not wedge every other node spinning on its lock.  The poke
// is untimed: the clear models the PNC crash handler, not a store by the
// (dead) holder.
struct LockCrashGuard {
  sim::Machine& m;
  sim::PhysAddr cell;
  bool armed = true;
  ~LockCrashGuard() {
    if (armed) m.poke<std::uint32_t>(cell, 0);
  }
};
}  // namespace

UniformSystem::UniformSystem(chrys::Kernel& k, UsConfig cfg)
    : k_(k), m_(k.machine()), cfg_(cfg) {
  procs_ = cfg_.processors == 0 ? m_.nodes()
                                : std::min(cfg_.processors, m_.nodes());
  mem_nodes_ = cfg_.memory_nodes == 0
                   ? m_.nodes()
                   : std::min(cfg_.memory_nodes, m_.nodes());
}

UniformSystem::~UniformSystem() {
  m_.remove_observer(crash_observer_);
}

sim::Time UniformSystem::run_main(std::function<void()> main) {
  k_.create_process(
      0,
      [this, body = std::move(main)] {
        initialize();
        body();
        terminate();
      },
      "us-main");
  return m_.run();
}

void UniformSystem::initialize() {
  assert(!initialized_);
  initialized_ = true;
  sim::TraceSpan span(m_, "us", "initialize", procs_);
  work_queue_ = k_.make_dual_queue();
  k_.give_to_system(work_queue_);  // shared by all managers

  // Shared-heap metadata lives on node 0 (a mild hot spot, as on the real
  // system).  The outstanding-task counter is the strategy's choice: the
  // 1988 hot cell on node 0, or one cell per pool processor.
  sync::CounterKind kind = cfg_.idle_counter;
  if (kind == sync::CounterKind::kAuto)
    kind = m_.config().sync_strategy == sim::SyncStrategy::kScalable
               ? sync::CounterKind::kDistributed
               : sync::CounterKind::kCentral;
  if (kind == sync::CounterKind::kDistributed) {
    std::vector<sim::NodeId> cell_nodes(procs_);
    for (std::uint32_t w = 0; w < procs_; ++w) cell_nodes[w] = w;
    idle_counter_ = std::make_unique<sync::DistributedCounter>(
        m_, cell_nodes, "US.outstanding");
  } else {
    idle_counter_ = std::make_unique<sync::CentralCounter>(m_, 0,
                                                           "US.outstanding");
  }
  rr_counter_ = m_.alloc(0, 8);
  m_.poke<std::uint32_t>(rr_counter_, 0);
  m_.label_memory(rr_counter_, 8, "US.rr_counter");
  serial_lock_cell_ = m_.alloc(0, 8);
  m_.poke<std::uint32_t>(serial_lock_cell_, 0);
  m_.label_memory(serial_lock_cell_, 8, "US.serial_lock");
  node_lock_cell_.resize(mem_nodes_);
  for (std::uint32_t n = 0; n < mem_nodes_; ++n) {
    // A memory node already dead at startup still needs a lock cell — the
    // round-robin allocator grabs the lock before discovering the node is
    // gone.  Park the cell on node 0 so the probe fails cleanly.
    node_lock_cell_[n] = m_.alloc(m_.node_alive(n) ? n : 0, 8);
    m_.poke<std::uint32_t>(node_lock_cell_[n], 0);
    m_.label_memory(node_lock_cell_[n], 8,
                    "US.node_lock[" + std::to_string(n) + "]");
  }

  managers_.assign(procs_, chrys::kNoObject);
  inflight_.assign(procs_, kNoTask);
  decrementing_.assign(procs_, 0);
  manager_alive_.assign(procs_, 1);
  managers_alive_ = procs_;
  // Crash tier, not death tier: the Uniform System only learns of deaths
  // the hardware broadcasts.  A silent kill reaches handle_node_death via
  // excise_node (a failure detector's verdict) instead.
  crash_observer_ =
      m_.on_node_crash([this](sim::NodeId n) { handle_node_death(n); });
  if (!cfg_.tree_init) {
    // Historical behaviour: the initializing process creates every manager
    // serially — startup is linear in P (the paper's Amdahl lesson; the
    // Rochester "faster initialization" fix is tree_init below).
    for (std::uint32_t w = 0; w < procs_; ++w) {
      if (!manager_alive_[w]) continue;  // died while we were creating others
      try {
        managers_[w] = k_.create_process(
            w, [this, w] { manager_loop(w); }, "us-mgr" + std::to_string(w));
      } catch (const chrys::ThrowSignal& t) {
        if (t.code != chrys::kThrowNodeDead) throw;
        mark_manager_dead(w);
      }
    }
  } else {
    // Fan-out tree: manager w creates managers 2w+1 and 2w+2 before
    // entering its loop.  The local part of creation parallelizes; the
    // serialized template section remains (and still limits speedup).
    start_manager_tree(0);
  }
}

void UniformSystem::start_manager_tree(std::uint32_t w) {
  if (manager_alive_[w]) {
    try {
      managers_[w] = k_.create_process(
          w,
          [this, w] {
            for (std::uint32_t c = 2 * w + 1; c <= 2 * w + 2; ++c)
              if (c < procs_) start_manager_tree(c);
            manager_loop(w);
          },
          "us-mgr" + std::to_string(w));
      return;
    } catch (const chrys::ThrowSignal& t) {
      if (t.code != chrys::kThrowNodeDead) throw;
      mark_manager_dead(w);
    }
  }
  // Subtree root is dead: adopt its children so their subtrees still start.
  for (std::uint32_t c = 2 * w + 1; c <= 2 * w + 2; ++c)
    if (c < procs_) start_manager_tree(c);
}

void UniformSystem::mark_manager_dead(std::uint32_t w) {
  // A node found dead at manager-creation time.  If the death observer
  // already saw it die (registered before the creation loop), everything
  // below happened there.
  if (!manager_alive_[w]) return;
  manager_alive_[w] = 0;
  --managers_alive_;
  ++nodes_lost_;
}

void UniformSystem::terminate() {
  m_.trace_instant("us", "terminate", procs_);
  for (std::uint32_t w = 0; w < procs_; ++w) k_.dq_enqueue(work_queue_, kStopTid);
}

void UniformSystem::manager_loop(std::uint32_t worker) {
  const sim::NodeId node = k_.self().node();
  while (true) {
    // Task boundaries are the manager's only scheduling points, so give any
    // co-resident process (a heartbeat daemon, the membership watchdog) its
    // slice here: with nothing else ready this is free, and without it a
    // long grind starves the detector until the whole run drains.
    k_.yield();
    const std::uint32_t tid = k_.dq_dequeue(work_queue_);
    if (tid == kStopTid) break;
    // Record the claim before any further yield: if this node dies mid-task
    // the death observer re-issues exactly this descriptor.
    inflight_[worker] = tid;
    {
      sim::TraceSpan span(m_, "us", "task", table_[tid].arg);
      m_.charge(kDispatchOverhead);
      TaskCtx ctx{*this, k_, m_, worker, node, table_[tid].arg};
      // A task that throws — or hits a machine fault — must not take its
      // manager down with it: the processor would silently drop out of the
      // crowd.  Trap, count, move on.
      try {
        table_[tid].fn(ctx);
      } catch (const chrys::ThrowSignal&) {
        ++tasks_faulted_;
      } catch (const sim::NodeDeadError&) {
        ++tasks_faulted_;
      } catch (const sim::NetUnreachableError&) {
        ++tasks_faulted_;
      } catch (const sim::MemoryFaultError&) {
        ++tasks_faulted_;
      }
    }
    ++tasks_run_;
    // The task body is done: from here the descriptor must not be re-run,
    // but its outstanding_ decrement is still owed.  The two flags flip
    // host-side (no yields), so the death observer always sees exactly one
    // of: "reissue the task" / "apply the owed decrement" / "all settled".
    inflight_[worker] = kNoTask;
    decrementing_[worker] = 1;
    // With a distributed counter this add is local and returns kUnknown —
    // no manager can tell it drained the count, so nobody posts and the
    // waiter polls instead (see wait_idle).
    const std::uint32_t before = counter_add_retry(0xffffffffu);
    decrementing_[worker] = 0;
    if (before == 1 && waiter_proc_ != chrys::kNoObject) {
      // Post first, clear second: if this node dies inside the post's
      // charge, waiter_proc_ is still set and the death observer rescues
      // the waiter.  Delivery and the clear are a single host-side step.
      k_.event_post(idle_event_, 0);
      waiter_proc_ = chrys::kNoObject;
    }
  }
  manager_alive_[worker] = 0;
  --managers_alive_;
}

void UniformSystem::enqueue_descriptor(std::uint32_t tid) {
  k_.dq_enqueue(work_queue_, tid);
}

std::uint32_t UniformSystem::fetch_add_retry(sim::PhysAddr a,
                                             std::uint32_t d) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      return m_.fetch_add_u32(a, d);
    } catch (const sim::MemoryFaultError& e) {
      if (attempt + 1 >= std::max(1u, cfg_.retry.attempts)) {
        if (retry_exhausted_) retry_exhausted_(e.node());
        throw;
      }
      m_.charge(cfg_.retry.backoff(attempt));
    }
  }
}

std::uint32_t UniformSystem::read_u32_retry(sim::PhysAddr a) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      return m_.read<std::uint32_t>(a);
    } catch (const sim::MemoryFaultError& e) {
      if (attempt + 1 >= std::max(1u, cfg_.retry.attempts)) {
        if (retry_exhausted_) retry_exhausted_(e.node());
        throw;
      }
      m_.charge(cfg_.retry.backoff(attempt));
    }
  }
}

std::uint32_t UniformSystem::counter_add_retry(std::uint32_t d) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      return idle_counter_->add(d);
    } catch (const sim::MemoryFaultError& e) {
      if (attempt + 1 >= std::max(1u, cfg_.retry.attempts)) {
        if (retry_exhausted_) retry_exhausted_(e.node());
        throw;
      }
      m_.charge(cfg_.retry.backoff(attempt));
    }
  }
}

std::uint32_t UniformSystem::counter_read_retry() {
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      return idle_counter_->read();
    } catch (const sim::MemoryFaultError& e) {
      if (attempt + 1 >= std::max(1u, cfg_.retry.attempts)) {
        if (retry_exhausted_) retry_exhausted_(e.node());
        throw;
      }
      m_.charge(cfg_.retry.backoff(attempt));
    }
  }
}

void UniformSystem::excise_node(sim::NodeId n) {
  // A live node must never be excised: its manager is still running and
  // would later double-apply every completion we faked here.  Membership
  // filters false suspicions before calling, but stay defensive.
  if (n >= m_.nodes() || m_.node_alive(n)) return;
  handle_node_death(n);
}

void UniformSystem::handle_node_death(sim::NodeId n) {
  if (!initialized_ || n >= procs_) return;  // not a pool processor
  if (!manager_alive_[n]) return;            // already stopped normally
  manager_alive_[n] = 0;
  --managers_alive_;
  ++nodes_lost_;
  if (decrementing_[n]) {
    // The task body finished but the node died before its outstanding-count
    // decrement landed; apply it on the dead manager's behalf (host-side —
    // the simulated store was lost with the node).
    decrementing_[n] = 0;
    idle_counter_->poke_adjust(-1);
  }
  // Retire the dead node's counter cell (its value folds host-side, so
  // the count survives the node).
  idle_counter_->excise(n);
  if (inflight_[n] != kNoTask) {
    // The claimed descriptor died with its manager mid-run: put it back at
    // the front of the queue for a survivor.  At-least-once semantics —
    // tasks observe no partial simulated writes (mutations are atomic with
    // the charge that pays for them), so a re-run is safe.
    const std::uint32_t tid = inflight_[n];
    inflight_[n] = kNoTask;
    ++tasks_reissued_;
    k_.dq_enqueue(work_queue_, tid);
  }
  // Rescue a stranded wait_idle: either the work drained exactly as the
  // last manager died, or there is nobody left to drain it.
  if (waiter_proc_ != chrys::kNoObject &&
      (managers_alive_ == 0 || idle_counter_->peek_total() == 0)) {
    waiter_proc_ = chrys::kNoObject;
    k_.event_post(idle_event_, 0);
  }
}

void UniformSystem::gen_task(TaskFn fn, std::uint32_t arg) {
  table_.push_back(TaskRec{std::move(fn), arg});
  const auto tid = static_cast<std::uint32_t>(table_.size() - 1);
  m_.trace_instant("us", "gen_task", tid);
  (void)counter_add_retry(1);
  enqueue_descriptor(tid);
}

void UniformSystem::gen_on_index(std::uint32_t lo, std::uint32_t hi,
                                 TaskFn fn) {
  if (lo >= hi) return;
  m_.trace_instant("us", "gen_on_index", hi - lo);
  // One shared TaskRec; the per-index argument rides in the descriptor's
  // low bits via distinct records (kept simple: one record per index, the
  // closure is shared).
  (void)counter_add_retry(hi - lo);
  for (std::uint32_t i = lo; i < hi; ++i) {
    table_.push_back(TaskRec{fn, i});
    enqueue_descriptor(static_cast<std::uint32_t>(table_.size() - 1));
    // A large generation holds this CPU for many milliseconds of charged
    // enqueues; let co-resident processes run between descriptors (free
    // when nothing is ready).
    k_.yield();
  }
}

void UniformSystem::wait_idle() {
  // The span's *end* is what matters downstream: scope::Tracer treats it as
  // a phase barrier in the critical-path report.
  sim::TraceSpan span(m_, "us", "wait_idle");
  if (!idle_counter_->exact()) {
    // Distributed cells: no completion can tell it drained the count, so
    // the waiter polls the aggregated sum.  A charged scan never reads a
    // false zero while only decrements are in flight, and the untimed peek
    // re-confirms the zero against cells folded by crash handlers.
    for (;;) {
      if (counter_read_retry() == 0 && idle_counter_->peek_total() == 0)
        return;
      // Whole pool dead: the queued tasks will never run.  Return degraded
      // instead of polling forever.
      if (managers_alive_ == 0) return;
      k_.delay(kIdlePollInterval);
    }
  }
  chrys::Process& p = k_.self();
  if (counter_read_retry() == 0) return;
  // Whole pool dead: the queued tasks will never run, and nobody is left to
  // post the idle event.  Return degraded instead of parking forever.
  if (managers_alive_ == 0) return;
  idle_event_ = k_.make_event(p.oid());
  waiter_proc_ = p.oid();
  // Re-check: the last task may have completed while we created the event.
  if (counter_read_retry() == 0) {
    if (waiter_proc_ != chrys::kNoObject) {
      // No manager claimed the post: nothing outstanding, just clean up.
      waiter_proc_ = chrys::kNoObject;
      k_.delete_object(idle_event_);
      idle_event_ = chrys::kNoObject;
      return;
    }
    // A manager posted already; fall through and consume it.
  }
  (void)k_.event_wait(idle_event_);
  k_.delete_object(idle_event_);
  idle_event_ = chrys::kNoObject;
}

void UniformSystem::for_all(std::uint32_t lo, std::uint32_t hi, TaskFn fn) {
  gen_on_index(lo, hi, std::move(fn));
  wait_idle();
}

// --- Shared memory ---------------------------------------------------------------

sim::PhysAddr UniformSystem::allocate_with_lock(sim::NodeId node,
                                                std::size_t bytes) {
  const sim::PhysAddr cell = cfg_.parallel_allocator
                                 ? node_lock_cell_[node % mem_nodes_]
                                 : serial_lock_cell_;
  chrys::SpinLock lock(m_, cell);
  lock.acquire();
  // Armed only while the lock is held; disarmed after release() returns (a
  // release interrupted by a kill never cleared the word, so disarming
  // before it would leave the lock set forever).
  LockCrashGuard guard{m_, cell};
  m_.charge(kAllocWork);
  // Ceiling check and bookkeeping must be adjacent (no yields between),
  // so concurrent allocators on different nodes cannot both squeeze under
  // the 16 MB limit.
  if (heap_in_use_ + bytes > cfg_.heap_limit) {
    lock.release();
    guard.armed = false;
    throw chrys::ThrowSignal{chrys::kThrowOutOfMemory,
                             static_cast<std::uint32_t>(bytes)};
  }
  sim::PhysAddr a;
  try {
    a = m_.alloc(node, bytes);
  } catch (const sim::NodeDeadError&) {
    lock.release();
    guard.armed = false;
    throw chrys::ThrowSignal{chrys::kThrowNodeDead, node};
  } catch (const sim::SimError&) {
    lock.release();
    guard.armed = false;
    throw chrys::ThrowSignal{chrys::kThrowOutOfMemory, node};
  }
  heap_in_use_ += bytes;
  lock.release();
  guard.armed = false;
  return a;
}

sim::PhysAddr UniformSystem::alloc_global(std::size_t bytes) {
  const std::uint32_t idx = fetch_add_retry(rr_counter_, 1);
  return allocate_with_lock(idx % mem_nodes_, bytes);
}

sim::PhysAddr UniformSystem::alloc_on(sim::NodeId node, std::size_t bytes) {
  return allocate_with_lock(node, bytes);
}

void UniformSystem::free_global(sim::PhysAddr p, std::size_t bytes) {
  m_.free(p, bytes);
  heap_in_use_ -= std::min(heap_in_use_, bytes);
}

std::vector<sim::PhysAddr> UniformSystem::scatter_rows(std::size_t count,
                                                       std::size_t row_bytes) {
  std::vector<sim::PhysAddr> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    rows.push_back(alloc_on(static_cast<sim::NodeId>(i % mem_nodes_),
                            row_bytes));
  return rows;
}

}  // namespace bfly::us
