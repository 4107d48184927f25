#include "chrysalis/kernel.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace bfly::chrys {

namespace {
// The 16 standard memory-object sizes (Section 2.2 footnote 3).  An
// odd-sized object is rounded up, with an inaccessible fragment at the end.
constexpr std::array<std::size_t, 16> kStandardSizes = {
    0,         256,       512,       1024,     2048,      4096,
    8192,      12 * 1024, 16 * 1024, 24 * 1024, 32 * 1024, 40 * 1024,
    48 * 1024, 56 * 1024, 60 * 1024, 64 * 1024};
}  // namespace

Kernel::Kernel(sim::Machine& m)
    : m_(m),
      sched_(m.nodes()),
      sars_free_(m.nodes(), m.config().sars_per_node) {
  // Registered first so the kernel's view is consistent before any higher
  // layer's death observer runs.
  death_observer_ =
      m_.on_node_death([this](sim::NodeId n) { handle_node_death(n); });
}

Kernel::~Kernel() { m_.remove_observer(death_observer_); }

void Kernel::charge_if_on_fiber(sim::Time ns) {
  if (sim::Fiber::current() != nullptr) m_.charge(ns);
}

// --- Object table ------------------------------------------------------------

Oid Kernel::new_object(ObjKind kind, Oid owner) {
  const Oid oid = next_oid_++;
  ObjRec r;
  r.kind = kind;
  r.owner = owner;
  r.creator = on_process() ? self().oid() : kNoObject;
  objects_.emplace(oid, std::move(r));
  if (owner != kNoObject) adopt(owner, oid);
  return oid;
}

Kernel::ObjRec& Kernel::rec(Oid oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) throw ThrowSignal{kThrowBadObject, oid};
  return it->second;
}

const Kernel::ObjRec& Kernel::rec(Oid oid) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) throw ThrowSignal{kThrowBadObject, oid};
  return it->second;
}

Process& Kernel::proc(Oid oid) {
  ObjRec& r = rec(oid);
  if (r.kind != ObjKind::kProcess) throw ThrowSignal{kThrowBadObject, oid};
  return *std::get<std::unique_ptr<Process>>(r.u);
}

void Kernel::adopt(Oid parent, Oid child) {
  auto it = objects_.find(parent);
  if (it != objects_.end()) it->second.children.push_back(child);
}

void Kernel::orphan(Oid child) {
  ObjRec& c = rec(child);
  if (c.owner == kNoObject) return;
  auto it = objects_.find(c.owner);
  if (it != objects_.end()) {
    auto& kids = it->second.children;
    kids.erase(std::remove(kids.begin(), kids.end(), child), kids.end());
  }
  c.owner = kNoObject;
}

bool Kernel::object_alive(Oid oid) const {
  return objects_.find(oid) != objects_.end();
}

ObjKind Kernel::object_kind(Oid oid) const { return rec(oid).kind; }

void Kernel::give_to_system(Oid oid) {
  orphan(oid);
  rec(oid).system_owned = true;
}

void Kernel::delete_object(Oid oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) return;
  // Reclaim subsidiary objects first (uniform ownership hierarchy).
  std::vector<Oid> kids = it->second.children;
  for (Oid k : kids) delete_object(k);
  it = objects_.find(oid);
  if (it == objects_.end()) return;
  ObjRec& r = it->second;
  orphan(oid);
  switch (r.kind) {
    case ObjKind::kMemoryObject: {
      const MemObj& mo = std::get<MemObj>(r.u);
      if (mo.size > 0) m_.free(mo.base, mo.size);
      live_bytes_ -= mo.size;
      wasted_bytes_ -= mo.size - mo.requested;
      break;
    }
    case ObjKind::kProcess: {
      Process& p = *std::get<std::unique_ptr<Process>>(r.u);
      // Deleting a live process is not modelled (external kill); SARs were
      // already refunded at exit.
      assert(p.state_ == Process::State::kExited &&
             "delete_object on a live process");
      (void)p;
      break;
    }
    default:
      break;
  }
  objects_.erase(oid);
}

// --- Memory objects -----------------------------------------------------------

std::size_t Kernel::standard_size(std::size_t bytes) {
  for (std::size_t s : kStandardSizes)
    if (s >= bytes) return s;
  throw ThrowSignal{kThrowOutOfMemory, static_cast<std::uint32_t>(bytes)};
}

Oid Kernel::make_memory_object(sim::NodeId node, std::size_t bytes) {
  const std::size_t size = standard_size(bytes);
  MemObj mo;
  mo.requested = bytes;
  mo.size = size;
  if (size > 0) {
    try {
      mo.base = m_.alloc(node, size);
    } catch (const sim::NodeDeadError&) {
      throw ThrowSignal{kThrowNodeDead, node};
    } catch (const sim::SimError&) {
      throw ThrowSignal{kThrowOutOfMemory, node};
    }
  }
  const Oid owner = on_process() ? self().oid() : kNoObject;
  const Oid oid = new_object(ObjKind::kMemoryObject, owner);
  rec(oid).u = mo;
  live_bytes_ += size;
  wasted_bytes_ += size - bytes;
  charge_if_on_fiber(200 * sim::kMicrosecond);  // Make_Obj kernel call
  return oid;
}

sim::PhysAddr Kernel::memobj_base(Oid mo) const {
  return std::get<MemObj>(rec(mo).u).base;
}
std::size_t Kernel::memobj_size(Oid mo) const {
  return std::get<MemObj>(rec(mo).u).size;
}
sim::NodeId Kernel::memobj_node(Oid mo) const {
  return std::get<MemObj>(rec(mo).u).base.node;
}

// --- Address space --------------------------------------------------------------

std::uint32_t Kernel::sar_block_for(std::uint32_t max_segments) {
  std::uint32_t b = 8;
  while (b < max_segments) b *= 2;
  return std::min<std::uint32_t>(b, 256);
}

std::uint32_t Kernel::map_object(Oid mo) {
  Process& p = self();
  const MemObj& obj = std::get<MemObj>(rec(mo).u);
  (void)obj;
  for (std::uint32_t s = 0; s < p.segments_.size(); ++s) {
    if (p.segments_[s] == kNoObject) {
      p.segments_[s] = mo;
      m_.charge(m_.config().sar_map_ns);
      return s;
    }
  }
  throw ThrowSignal{kThrowAddressSpaceFull, p.oid()};
}

void Kernel::unmap_segment(std::uint32_t segment) {
  Process& p = self();
  if (segment >= p.segments_.size() || p.segments_[segment] == kNoObject)
    throw ThrowSignal{kThrowSegmentFault, segment};
  p.segments_[segment] = kNoObject;
  m_.charge(m_.config().sar_map_ns);
}

Oid Kernel::segment_object(std::uint32_t segment) {
  Process& p = self();
  return segment < p.segments_.size() ? p.segments_[segment] : kNoObject;
}

sim::PhysAddr Kernel::translate(VirtAddr va, std::size_t bytes) {
  Process& p = self();
  const std::uint32_t seg = va.segment();
  if (seg >= p.segments_.size() || p.segments_[seg] == kNoObject)
    throw ThrowSignal{kThrowSegmentFault, va.raw};
  const MemObj& mo = std::get<MemObj>(rec(p.segments_[seg]).u);
  if (va.offset() + bytes > mo.size)
    throw ThrowSignal{kThrowSegmentFault, va.raw};
  return mo.base.plus(va.offset());
}

std::uint32_t Process::mapped_segments() const {
  std::uint32_t n = 0;
  for (Oid s : segments_)
    if (s != kNoObject) ++n;
  return n;
}

// --- Processes ------------------------------------------------------------------

Kernel::PartitionId Kernel::create_partition(std::vector<sim::NodeId> nodes) {
  for (sim::NodeId n : nodes)
    if (n >= m_.nodes()) throw ThrowSignal{kThrowBadObject, n};
  partitions_.push_back(std::move(nodes));
  return static_cast<PartitionId>(partitions_.size() - 1);
}

const std::vector<sim::NodeId>& Kernel::partition_nodes(PartitionId p) const {
  return partitions_.at(p);
}

Kernel::PartitionId Kernel::current_partition() {
  return on_process() ? self().partition_ : kWholeMachine;
}

Oid Kernel::enter_partition(PartitionId p, std::uint32_t index,
                            std::function<void()> main, std::string name) {
  const auto& nodes = partitions_.at(p);
  const Oid oid =
      create_process(nodes[index % nodes.size()], std::move(main),
                     std::move(name));
  proc(oid).partition_ = p;
  return oid;
}

Oid Kernel::create_process(sim::NodeId node, std::function<void()> main,
                           std::string name, std::uint32_t max_segments) {
  if (!m_.node_alive(node)) throw ThrowSignal{kThrowNodeDead, node};
  // Partition fence: a process inside a virtual machine may only create
  // processes on that machine's nodes.
  PartitionId inherited = kWholeMachine;
  if (on_process()) {
    inherited = self().partition_;
    if (inherited != kWholeMachine) {
      const auto& nodes = partitions_[inherited];
      if (std::find(nodes.begin(), nodes.end(), node) == nodes.end())
        throw ThrowSignal{kThrowBadObject, node};
    }
  }
  const std::uint32_t block = sar_block_for(max_segments);
  if (sars_free_[node] < block) throw ThrowSignal{kThrowNoSars, node};
  sars_free_[node] -= block;

  // Creation cost: local work plus a serialized pass over the global
  // process-template resource.  The serial section is a time-domain
  // resource: concurrent creators queue behind one another.
  if (sim::Fiber::current() != nullptr) {
    const auto& cfg = m_.config();
    m_.charge(cfg.proc_create_local_ns);
    const sim::Time start = std::max(m_.now(), template_busy_until_);
    template_busy_until_ = start + cfg.proc_create_serial_ns;
    m_.charge(template_busy_until_ - m_.now());
    // The charges above take milliseconds of simulated time; the target can
    // die in the middle of them.  Re-check so the caller sees the same
    // kThrowNodeDead as a dead-at-entry target, not a raw machine error
    // from the fiber spawn below.
    if (!m_.node_alive(node)) {
      sars_free_[node] += block;
      throw ThrowSignal{kThrowNodeDead, node};
    }
    // Shipping the template to a node we cannot route to fails the same
    // way a reference would; the target may be healthy beyond the cut.
    if (m_.faults_possible() && !m_.reachable(m_.current_node(), node)) {
      sars_free_[node] += block;
      throw ThrowSignal{kThrowNetUnreachable, node};
    }
  }

  auto pp = std::make_unique<Process>();
  Process* p = pp.get();
  if (explore_)
    p->explore_prio_ = static_cast<std::uint32_t>(explore_rng_.next());
  // A live process holds a reference to itself: it is not reclaimed when
  // its creator is deleted (only its exit releases it).
  const Oid oid = new_object(ObjKind::kProcess, kNoObject);
  p->oid_ = oid;
  p->node_ = node;
  p->partition_ = inherited;
  p->name_ = name.empty() ? "proc" + std::to_string(oid) : std::move(name);
  p->sar_block_ = block;
  p->segments_.assign(std::min(block, m_.config().max_segments_per_process),
                      kNoObject);
  p->state_ = Process::State::kReady;

  p->fiber_ = m_.spawn_parked(node, [this, p, body = std::move(main)] {
    // Lifetime span for the whole process; RAII so a FiberKill unwind
    // closes it too.
    sim::TraceSpan span(m_, "chrys", "process", p->oid_);
    // Top-level fault barrier: an uncaught throw terminates the process,
    // as when Chrysalis unwinds to the outermost handler.  Machine faults
    // (dead-node references, parity errors) terminate it the same way.
    try {
      body();
    } catch (const ThrowSignal&) {
      p->faulted_ = true;
    } catch (const sim::FaultError&) {
      p->faulted_ = true;
    } catch (const sim::FiberKill&) {
      // This process's own node died.  Record the death without timed
      // operations (there is no CPU left to charge) and let the fiber end.
      kill_exit(*p);
      return;
    }
    exit_self();
  });
  p->fiber_->set_name(p->name_);
  by_fiber_[p->fiber_] = p;
  rec(oid).u = std::move(pp);
  ++live_processes_;
  m_.trace_instant("chrys", "create_process", oid);
  make_ready(*p);
  return oid;
}

Oid Kernel::process_of(sim::Fiber* f) const {
  auto it = by_fiber_.find(f);
  return it == by_fiber_.end() ? kNoObject : it->second->oid();
}

// --- Schedule exploration -----------------------------------------------------

void Kernel::set_schedule_exploration(std::uint64_t seed,
                                      std::uint32_t change_points,
                                      std::uint64_t horizon_steps) {
  explore_ = true;
  explore_rng_.reseed(seed);
  change_steps_.clear();
  change_cursor_ = 0;
  for (std::uint32_t i = 0; i < change_points; ++i)
    change_steps_.push_back(1 + explore_rng_.below(std::max<std::uint64_t>(
                                    horizon_steps, 1)));
  std::sort(change_steps_.begin(), change_steps_.end());
  // Processes created before exploration was enabled keep priority 0 (the
  // lowest); new processes draw on creation.
}

void Kernel::maybe_change_priority(Process& p) {
  ++dispatch_steps_;
  while (change_cursor_ < change_steps_.size() &&
         dispatch_steps_ >= change_steps_[change_cursor_]) {
    p.explore_prio_ = static_cast<std::uint32_t>(explore_rng_.next());
    ++change_cursor_;
  }
}

Oid Kernel::pick_waiter(DualQueueObj& q) {
  while (!q.waiters.empty()) {
    std::size_t best = 0;
    if (explore_) {
      for (std::size_t i = 1; i < q.waiters.size(); ++i) {
        // Live waiters only influence the pick; corpses are skipped below
        // either way.  Ties go to the oldest waiter, like FIFO.
        if (proc(q.waiters[i]).explore_prio_ >
            proc(q.waiters[best]).explore_prio_)
          best = i;
      }
    }
    const Oid w = q.waiters[best];
    q.waiters.erase(q.waiters.begin() +
                    static_cast<std::ptrdiff_t>(best));
    Process& p = proc(w);
    if (p.killed_ || p.state_ == Process::State::kExited) continue;
    // A handoff pick is a scheduling decision: it advances the PCT step
    // counter and can consume a priority-change point, like a dispatch.
    if (explore_) maybe_change_priority(p);
    return w;
  }
  return kNoObject;
}

std::vector<Kernel::BlockedInfo> Kernel::blocked_processes() const {
  std::vector<BlockedInfo> out;
  for (const auto& [oid, r] : objects_) {
    if (r.kind != ObjKind::kProcess) continue;
    const Process& p = *std::get<std::unique_ptr<Process>>(r.u);
    if (p.state() == Process::State::kBlocked)
      out.push_back(BlockedInfo{p.name(), oid, p.waiting_on()});
  }
  return out;
}

std::string Kernel::sched_snapshot() const {
  std::string out;
  for (std::size_t n = 0; n < sched_.size(); ++n) {
    const NodeSched& ns = sched_[n];
    if (ns.current == nullptr && ns.ready.empty()) continue;
    out += "node " + std::to_string(n) + ": current=";
    out += ns.current != nullptr ? ns.current->name() : std::string("-");
    for (const Process* p : ns.ready) out += " ready:" + p->name();
    out += '\n';
  }
  return out;
}

Process& Kernel::self() {
  sim::Fiber* f = sim::Fiber::current();
  auto it = by_fiber_.find(f);
  if (f == nullptr || it == by_fiber_.end())
    throw sim::SimError("self(): not called from a Chrysalis process");
  return *it->second;
}

bool Kernel::on_process() const {
  sim::Fiber* f = sim::Fiber::current();
  return f != nullptr && by_fiber_.count(f) > 0;
}

void Kernel::make_ready(Process& p) {
  if (p.killed_ || p.state_ == Process::State::kExited) return;
  if (p.state_ == Process::State::kRunning) {
    // The target is on its CPU, part-way through deciding to block (e.g.
    // inside the context-switch charge of block_self).  Flag the wakeup so
    // the block is cancelled instead of lost.
    p.wakeup_pending_ = true;
    return;
  }
  p.state_ = Process::State::kReady;
  NodeSched& ns = sched_[p.node_];
  if (ns.current == nullptr) {
    ns.current = &p;
    p.state_ = Process::State::kRunning;
    p.wakeup_pending_ = false;
    m_.wakeup(p.fiber_);
  } else {
    ns.ready.push_back(&p);
  }
}

void Kernel::dispatch_next(sim::NodeId node) {
  NodeSched& ns = sched_[node];
  if (ns.ready.empty()) {
    ns.current = nullptr;
    return;
  }
  std::size_t pick = 0;
  if (explore_) {
    // PCT dispatch: highest priority wins, ties to the oldest (FIFO).
    for (std::size_t i = 1; i < ns.ready.size(); ++i)
      if (ns.ready[i]->explore_prio_ > ns.ready[pick]->explore_prio_) pick = i;
  }
  ns.current = ns.ready[pick];
  ns.ready.erase(ns.ready.begin() + static_cast<std::ptrdiff_t>(pick));
  ns.current->state_ = Process::State::kRunning;
  ns.current->wakeup_pending_ = false;
  if (explore_) maybe_change_priority(*ns.current);
  m_.wakeup(ns.current->fiber_);
}

void Kernel::block_self() {
  Process& p = self();
  assert(sched_[p.node_].current == &p);
  ++p.wait_seq_;  // invalidates any timer armed for an earlier wait
  m_.charge(m_.config().proc_switch_ns);
  if (p.wakeup_pending_) {
    // A post raced with our decision to block: stay on the CPU.
    p.wakeup_pending_ = false;
    return;
  }
  p.state_ = Process::State::kBlocked;
  dispatch_next(p.node_);
  m_.park();
  // Resumed: make_ready set us Running and installed us as current.
}

void Kernel::exit_self() {
  Process& p = self();
  p.state_ = Process::State::kExited;
  by_fiber_.erase(p.fiber_);
  --live_processes_;
  // SARs return to the node at exit.
  sars_free_[p.node_] += p.sar_block_;
  p.sar_block_ = 0;
  // Reclaim subsidiary objects (ownership hierarchy).
  std::vector<Oid> kids = rec(p.oid()).children;
  for (Oid k : kids) delete_object(k);
  // System-owned objects this process created are now unreachable garbage:
  // nothing will ever reclaim them.  "Chrysalis tends to leak storage."
  for (auto& [oid, r] : objects_) {
    (void)oid;
    if (r.system_owned && r.creator == p.oid() &&
        r.kind == ObjKind::kMemoryObject) {
      leaked_bytes_ += std::get<MemObj>(r.u).size;
      r.creator = kNoObject;  // count once
    }
  }
  dispatch_next(p.node_);
  // Fall off: the fiber body returns and the fiber finishes.
}

void Kernel::kill_exit(Process& p) {
  if (p.state_ == Process::State::kExited) return;
  p.killed_ = true;
  p.faulted_ = true;
  p.state_ = Process::State::kExited;
  by_fiber_.erase(p.fiber_);
  --live_processes_;
  ++killed_processes_;
  sars_free_[p.node_] += p.sar_block_;
  p.sar_block_ = 0;
  // Pull the corpse out of the dead node's scheduler...
  NodeSched& ns = sched_[p.node_];
  if (ns.current == &p) ns.current = nullptr;
  std::erase(ns.ready, &p);
  // ...and out of whatever it was blocked on, so a later post is not
  // delivered to it.
  if (p.waiting_on_ != kNoObject) {
    auto it = objects_.find(p.waiting_on_);
    if (it != objects_.end()) {
      if (it->second.kind == ObjKind::kDualQueue) {
        auto& q = std::get<DualQueueObj>(it->second.u);
        std::erase(q.waiters, p.oid());
      } else if (it->second.kind == ObjKind::kEvent) {
        auto& e = std::get<EventObj>(it->second.u);
        if (e.owner == p.oid()) e.waiting = false;
      }
    }
    p.waiting_on_ = kNoObject;
  }
  // A datum handed to this process but never consumed goes back to its
  // queue: task descriptors and tokens must not die with a courier.
  if (p.dq_handoff_from_ != kNoObject) {
    const Oid src = p.dq_handoff_from_;
    p.dq_handoff_from_ = kNoObject;
    if (objects_.count(src) > 0 && rec(src).kind == ObjKind::kDualQueue)
      deliver_or_queue(src, p.wait_datum_);
  }
  // Unlike exit_self, nothing is reclaimed: the node crashed, so its
  // subsidiary objects linger until kernel teardown — faithful to a machine
  // where a dead node's memory objects were simply unreachable.
}

void Kernel::handle_node_death(sim::NodeId n) {
  for (auto& [oid, r] : objects_) {
    (void)oid;
    if (r.kind != ObjKind::kProcess) continue;
    Process& p = *std::get<std::unique_ptr<Process>>(r.u);
    if (p.node_ != n || p.state_ == Process::State::kExited) continue;
    p.killed_ = true;  // visible immediately: posts now skip this process
    // Processes whose fiber never started have no stack to unwind; the
    // machine drops them outright, so their exit bookkeeping happens here.
    // Started fibers unwind via FiberKill and reach kill_exit themselves.
    if (p.fiber_->state() == sim::Fiber::State::kRunnable) kill_exit(p);
  }
}

void Kernel::deliver_or_queue(Oid dq, std::uint32_t datum) {
  DualQueueObj& q = std::get<DualQueueObj>(rec(dq).u);
  if (const Oid woid = pick_waiter(q); woid != kNoObject) {
    Process& w = proc(woid);
    w.wait_datum_ = datum;
    w.waiting_on_ = kNoObject;
    w.dq_handoff_from_ = dq;
    m_.observe_post(sim::chan_of_oid(dq), sim::PostOutcome::kHandoff);
    make_ready(w);
    return;
  }
  // Head, not tail: the datum was logically already dequeued once.
  m_.observe_post(sim::chan_of_oid(dq), sim::PostOutcome::kQueued);
  q.data.push_front(datum);
}

void Kernel::yield() {
  Process& p = self();
  NodeSched& ns = sched_[p.node_];
  if (ns.ready.empty()) return;  // nothing else to run
  m_.charge(m_.config().proc_switch_ns);
  p.state_ = Process::State::kReady;
  ns.ready.push_back(&p);
  dispatch_next(p.node_);
  // Under schedule exploration the dispatcher picks by priority and may
  // re-pick the yielder itself (FIFO always picks the other process: the
  // yielder joined at the back).  Its wakeup was dropped — machine wakeups
  // on a still-running fiber are no-ops — so parking here would sleep
  // forever on a wakeup that already happened.  Found by sched_fuzz: the
  // first wedged seed parked Membership::start()'s creation loop this way
  // and stranded every process behind it.
  if (ns.current == &p) return;
  m_.park();
}

void Kernel::delay(sim::Time ns) {
  // A real delay releases the CPU unconditionally.  Charging the interval
  // instead when the ready queue happens to be empty looks equivalent but
  // is not: charges are non-preemptible, so a process that becomes ready
  // mid-delay (a server woken by an arriving request, a client woken by a
  // reply) would wait out the sleeper's whole charge.  Periodic sleepers —
  // heartbeat daemons, open-loop load generators — would make every node
  // look permanently busy.
  Process& p = self();
  const sim::Time wake_at = m_.now() + ns;
  p.state_ = Process::State::kBlocked;
  dispatch_next(p.node_);
  // Self-wakeup via a timer event; make_ready handles CPU availability.
  // Lifetime: look the process up by oid at fire time — it may have exited
  // (or died with its node) and been reclaimed while the timer was armed.
  const Oid poid = p.oid();
  m_.engine().post_at(wake_at, [this, poid] {
    auto it = objects_.find(poid);
    if (it == objects_.end()) return;
    Process& w = *std::get<std::unique_ptr<Process>>(it->second.u);
    if (w.killed_ || w.state_ != Process::State::kBlocked) return;
    // A delaying process waits on nothing; if it is blocked on an object,
    // this timer is stale (the process was woken by a kill/unwind path and
    // has moved on to a different wait).
    if (w.waiting_on_ != kNoObject) return;
    make_ready(w);
  });
  m_.park();
}

// --- Events ------------------------------------------------------------------------

Oid Kernel::make_event(Oid owner_process) {
  if (owner_process == kNoObject && on_process()) owner_process = self().oid();
  const Oid oid = new_object(ObjKind::kEvent, owner_process);
  EventObj e;
  e.owner = owner_process;
  rec(oid).u = e;
  charge_if_on_fiber(50 * sim::kMicrosecond);
  return oid;
}

void Kernel::event_post(Oid ev, std::uint32_t datum) {
  m_.trace_instant("chrys", "event_post", ev);
  charge_if_on_fiber(m_.config().event_post_ns);
  m_.observe_release(sim::chan_of_oid(ev));
  EventObj& e = std::get<EventObj>(rec(ev).u);
  if (e.waiting) {
    e.waiting = false;
    Process& owner = proc(e.owner);
    if (owner.killed_) {  // the waiter died with its node: drop
      m_.observe_post(sim::chan_of_oid(ev), sim::PostOutcome::kDroppedDead);
      return;
    }
    owner.wait_datum_ = datum;
    owner.waiting_on_ = kNoObject;
    m_.observe_post(sim::chan_of_oid(ev), sim::PostOutcome::kHandoff);
    make_ready(owner);
  } else {
    // A second post overwrites: binary semantics.  The overwritten datum —
    // and the wakeup it represented — is gone; moviola classifies a waiter
    // stuck on an event with overwrite history as a lost wakeup.
    m_.observe_post(sim::chan_of_oid(ev), e.pending
                                              ? sim::PostOutcome::kOverwrote
                                              : sim::PostOutcome::kQueued);
    e.pending = true;
    e.datum = datum;
  }
}

std::uint32_t Kernel::event_wait(Oid ev) {
  Process& p = self();
  sim::TraceSpan span(m_, "chrys", "event_wait", ev);
  m_.charge(m_.config().event_wait_ns);
  EventObj& e = std::get<EventObj>(rec(ev).u);
  if (e.owner != p.oid()) throw ThrowSignal{kThrowNotOwner, ev};
  if (e.pending) {
    e.pending = false;
    m_.observe_acquire(sim::chan_of_oid(ev));
    return e.datum;
  }
  e.waiting = true;
  p.waiting_on_ = ev;
  m_.observe_block(sim::chan_of_oid(ev), sim::WaitKind::kEvent);
  block_self();
  m_.observe_wake(sim::chan_of_oid(ev), sim::WakeReason::kServed);
  m_.observe_acquire(sim::chan_of_oid(ev));
  return p.wait_datum_;
}

bool Kernel::event_pending(Oid ev) const {
  return std::get<EventObj>(rec(ev).u).pending;
}

// --- Dual queues ---------------------------------------------------------------------

Oid Kernel::make_dual_queue(std::size_t capacity) {
  const Oid owner = on_process() ? self().oid() : kNoObject;
  const Oid oid = new_object(ObjKind::kDualQueue, owner);
  DualQueueObj q;
  q.capacity = capacity;
  rec(oid).u = std::move(q);
  charge_if_on_fiber(50 * sim::kMicrosecond);
  return oid;
}

void Kernel::dq_enqueue(Oid dq, std::uint32_t datum) {
  charge_if_on_fiber(m_.config().dq_enqueue_ns);
  dq_enqueue_uncharged(dq, datum);
}

void Kernel::dq_enqueue_uncharged(Oid dq, std::uint32_t datum) {
  m_.observe_release(sim::chan_of_oid(dq));
  DualQueueObj& q = std::get<DualQueueObj>(rec(dq).u);
  if (const Oid woid = pick_waiter(q); woid != kNoObject) {
    Process& w = proc(woid);
    w.wait_datum_ = datum;
    w.waiting_on_ = kNoObject;
    w.dq_handoff_from_ = dq;  // in flight until the dequeue call consumes it
    m_.observe_post(sim::chan_of_oid(dq), sim::PostOutcome::kHandoff);
    make_ready(w);
    return;
  }
  if (q.capacity != 0 && q.data.size() >= q.capacity)
    throw ThrowSignal{kThrowQueueFull, dq};
  m_.observe_post(sim::chan_of_oid(dq), sim::PostOutcome::kQueued);
  q.data.push_back(datum);
}

std::uint32_t Kernel::dq_dequeue(Oid dq) {
  Process& p = self();
  sim::TraceSpan span(m_, "chrys", "dq_wait", dq);
  m_.charge(m_.config().dq_dequeue_ns);
  DualQueueObj& q = std::get<DualQueueObj>(rec(dq).u);
  if (!q.data.empty()) {
    const std::uint32_t v = q.data.front();
    q.data.pop_front();
    m_.observe_acquire(sim::chan_of_oid(dq));
    return v;
  }
  q.waiters.push_back(p.oid());
  p.waiting_on_ = dq;
  m_.observe_block(sim::chan_of_oid(dq), sim::WaitKind::kDualQueue);
  block_self();
  m_.observe_wake(sim::chan_of_oid(dq), sim::WakeReason::kServed);
  p.dq_handoff_from_ = kNoObject;  // datum safely in our hands
  m_.observe_acquire(sim::chan_of_oid(dq));
  return p.wait_datum_;
}

bool Kernel::dq_dequeue_for(Oid dq, sim::Time timeout, std::uint32_t* out) {
  Process& p = self();
  sim::TraceSpan span(m_, "chrys", "dq_wait", dq);
  m_.charge(m_.config().dq_dequeue_ns);
  DualQueueObj& q = std::get<DualQueueObj>(rec(dq).u);
  if (!q.data.empty()) {
    *out = q.data.front();
    q.data.pop_front();
    m_.observe_acquire(sim::chan_of_oid(dq));
    return true;
  }
  q.waiters.push_back(p.oid());
  p.waiting_on_ = dq;
  p.timed_out_ = false;
  // block_self() bumps wait_seq_ exactly once; a timer for THIS wait must
  // match that value, so a stale timer firing during some later wait on the
  // same queue cannot cancel it.
  const std::uint64_t seq = p.wait_seq_ + 1;
  const Oid poid = p.oid();
  m_.engine().post_at(m_.now() + timeout, [this, poid, dq, seq] {
    auto it = objects_.find(poid);
    if (it == objects_.end()) return;
    Process& w = *std::get<std::unique_ptr<Process>>(it->second.u);
    if (w.killed_ || w.state_ != Process::State::kBlocked ||
        w.waiting_on_ != dq || w.wait_seq_ != seq)
      return;  // already served, or a different wait: stale timer
    auto qit = objects_.find(dq);
    if (qit != objects_.end()) {
      auto& qq = std::get<DualQueueObj>(qit->second.u);
      std::erase(qq.waiters, poid);
    }
    w.timed_out_ = true;
    w.waiting_on_ = kNoObject;
    make_ready(w);
  });
  m_.observe_block(sim::chan_of_oid(dq), sim::WaitKind::kDualQueue);
  block_self();
  m_.observe_wake(sim::chan_of_oid(dq), p.timed_out_ ? sim::WakeReason::kTimeout
                                                     : sim::WakeReason::kServed);
  if (p.timed_out_) return false;
  p.dq_handoff_from_ = kNoObject;  // datum safely in our hands
  m_.observe_acquire(sim::chan_of_oid(dq));
  *out = p.wait_datum_;
  return true;
}

bool Kernel::dq_try_dequeue(Oid dq, std::uint32_t* out) {
  charge_if_on_fiber(m_.config().dq_dequeue_ns);
  return dq_try_dequeue_uncharged(dq, out);
}

bool Kernel::dq_try_dequeue_uncharged(Oid dq, std::uint32_t* out) {
  DualQueueObj& q = std::get<DualQueueObj>(rec(dq).u);
  if (q.data.empty()) return false;
  *out = q.data.front();
  q.data.pop_front();
  m_.observe_acquire(sim::chan_of_oid(dq));
  return true;
}

std::size_t Kernel::dq_depth(Oid dq) const {
  return std::get<DualQueueObj>(rec(dq).u).data.size();
}

// --- Catch / throw ------------------------------------------------------------------

int Kernel::catch_block(const std::function<void()>& body,
                        std::uint32_t* datum_out) {
  charge_if_on_fiber(m_.config().catch_enter_ns);
  int code = kThrowNone;
  try {
    body();
  } catch (const ThrowSignal& t) {
    code = t.code;
    if (datum_out) *datum_out = t.datum;
  }
  charge_if_on_fiber(m_.config().catch_leave_ns);
  return code;
}

void Kernel::throw_err(int code, std::uint32_t datum) {
  throw ThrowSignal{code, datum};
}

}  // namespace bfly::chrys
