#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <exception>

namespace bfly::sim {

Machine::Machine(MachineConfig cfg, FaultPlan faults)
    : cfg_(cfg),
      faults_(std::move(faults)),
      fabric_(cfg),
      rng_(cfg.seed),
      fault_rng_(faults_.seed),
      stats_(cfg.nodes),
      node_(cfg.nodes),
      node_dead_(cfg.nodes, 0) {
  engine_.set_fiber_handler(&Machine::fiber_event, this);
  combining_ = fabric_.combining();
  if (combining_) fabric_.set_stats(&stats_);
  if (faults_.any()) {
    fault_checks_ = true;
    fabric_.configure_faults(faults_, &fault_rng_);
    fabric_.set_stats(&stats_);
    // Re-validate the whole kill list: a plan assembled by hand (directly
    // into node_kills) must hit the same duplicate / Time-0 checks as one
    // built through kill().
    faults_.validate();
    for (const FaultPlan::NodeKill& k : faults_.node_kills) {
      if (k.node >= cfg_.nodes) throw SimError("FaultPlan: bad node in kill");
      engine_.post_at(k.at,
                      [this, n = k.node, s = k.silent] { do_kill(n, s); });
    }
    for (const FaultPlan::SlowNode& s : faults_.slow_nodes) {
      if (s.node >= cfg_.nodes)
        throw SimError("FaultPlan: bad node in slow window");
    }
    has_slow_ = !faults_.slow_nodes.empty();
    for (const FaultPlan::CardFail& c : faults_.card_fails) {
      if (c.stage >= fabric_.stages() || c.card >= fabric_.cards())
        throw SimError("FaultPlan: bad stage/card in card fail");
      engine_.post_at(c.at, [this, s = c.stage, cd = c.card] {
        fabric_.fail_card(s, cd);
      });
    }
    for (const FaultPlan::LinkFail& l : faults_.link_fails) {
      if (l.stage >= fabric_.stages() || l.link >= fabric_.wires())
        throw SimError("FaultPlan: bad stage/link in link fail");
      engine_.post_at(l.at, [this, s = l.stage, w = l.link] {
        fabric_.fail_link(s, w);
      });
    }
    for (const FaultPlan::Partition& p : faults_.partitions) {
      Cut cut;
      cut.start = p.start;
      cut.heal = p.heal;
      cut.side.assign(cfg_.nodes, 0);
      for (NodeId n : p.side_a) {
        if (n >= cfg_.nodes)
          throw SimError("FaultPlan: bad node in partition side");
        cut.side[n] = 1;
      }
      for (NodeId n : p.side_b) {
        if (n >= cfg_.nodes)
          throw SimError("FaultPlan: bad node in partition side");
        cut.side[n] = 2;
      }
      cuts_.push_back(std::move(cut));
    }
    has_cuts_ = !cuts_.empty();
  }
}

// --- Fibers -------------------------------------------------------------

Fiber* Machine::spawn(NodeId node, std::function<void()> body,
                      std::string name, Time start_delay) {
  Fiber* f = spawn_parked(node, std::move(body), std::move(name));
  schedule_resume(ctl(f), engine_.now() + start_delay);
  return f;
}

Fiber* Machine::spawn_parked(NodeId node, std::function<void()> body,
                             std::string name) {
  if (node >= cfg_.nodes) throw SimError("spawn: bad node id");
  if (fault_checks_ && node_dead_[node]) throw NodeDeadError(node);
  auto fiber = std::make_unique<Fiber>(std::move(body),
                                       cfg_.fiber_stack_bytes,
                                       std::move(name));
  Fiber* f = fiber.get();
  FiberCtl c;
  c.fiber = std::move(fiber);
  c.node = node;
  auto [it, ok] = fibers_.emplace(f, std::move(c));
  assert(ok);
  (void)ok;
  live_link(&it->second);
  publish([](Probe& p, auto... x) { p.on_spawn(Fiber::current(), x...); },
          f);
  return f;
}

Machine::FiberCtl* Machine::ctl(Fiber* f) {
  auto it = fibers_.find(f);
  return it == fibers_.end() ? nullptr : &it->second;
}

NodeId Machine::current_node() const {
  FiberCtl* c = current_ctl();
  if (c == nullptr) throw SimError("current_node: not on a fiber");
  return c->node;
}

NodeId Machine::node_of(Fiber* f) const {
  if (cur_ctl_ != nullptr && cur_ctl_->fiber.get() == f) return cur_ctl_->node;
  auto it = fibers_.find(f);
  if (it == fibers_.end()) throw SimError("node_of: unknown fiber");
  return it->second.node;
}

void Machine::detach(Probe* p) {
  auto it = std::find(probes_.begin(), probes_.end(), p);
  if (it == probes_.end()) return;
  // Mid-dispatch, erasing would shift a probe past the loop's index: leave
  // a null slot for publish_all() to compact.
  if (hook_depth_ != 0) {
    *it = nullptr;
  } else {
    probes_.erase(it);
  }
}

NodeId Machine::trace_node() const {
  FiberCtl* c = current_ctl();
  return c == nullptr ? kTraceHostNode : c->node;
}

void Machine::live_link(FiberCtl* c) {
  c->live_prev = live_tail_;
  c->live_next = nullptr;
  if (live_tail_ != nullptr) {
    live_tail_->live_next = c;
  } else {
    live_head_ = c;
  }
  live_tail_ = c;
  ++live_count_;
}

void Machine::live_unlink(FiberCtl* c) {
  if (c->live_prev != nullptr) {
    c->live_prev->live_next = c->live_next;
  } else {
    live_head_ = c->live_next;
  }
  if (c->live_next != nullptr) {
    c->live_next->live_prev = c->live_prev;
  } else {
    live_tail_ = c->live_prev;
  }
  --live_count_;
}

void Machine::reap(FiberCtl* c) {
  live_unlink(c);
  fibers_.erase(c->fiber.get());  // destroys c and frees the stack
}

void Machine::fiber_event(void* machine, void* payload) {
  auto* m = static_cast<Machine*>(machine);
  m->enter(static_cast<FiberCtl*>(payload));
}

void Machine::enter(FiberCtl* c) {
  // A FiberCtl with a pending resume is never reaped (do_kill defers to the
  // pending event, abandon() forbids it), so `c` is always alive here.
  // do_kill enters parked fibers, which have no resume pending.
  c->resume_pending = false;
  ++fiber_resumes_;
  FiberCtl* const from = cur_ctl_;
  // Self-resume: the blocking fiber's own resume is the next event, so it
  // is already where the switch would land — keep running.
  if (from == c) return;
  cur_ctl_ = c;
  if (from != nullptr) {
    ++handoffs_;
    Fiber::switch_to(*c->fiber);
    // Resumed: whoever switched back here set cur_ctl_ to `from`.
    return;
  }
  c->fiber->resume();
  // The fiber that came back to the engine is the last one entered, which
  // need not be `c`: `c` may have handed off before it yielded or finished.
  FiberCtl* const back = cur_ctl_;
  cur_ctl_ = nullptr;
  if (back->fiber->finished()) reap(back);
}

void Machine::block(FiberCtl* c, void* next) {
  assert(cur_ctl_ == c);
  (void)c;
  if (next == nullptr) {
    // The earliest event is a closure, the heap is empty, or a stop is
    // requested: the engine's run loop decides.
    Fiber::yield_to_engine();
    return;
  }
  enter(static_cast<FiberCtl*>(next));
}

void Machine::schedule_resume(FiberCtl* c, Time at) {
  assert(!c->resume_pending);
  c->resume_pending = true;
  engine_.post_fiber_at(at, c);
}

Time Machine::run() { return engine_.run(); }

std::vector<Fiber*> Machine::blocked_fibers() const {
  std::vector<Fiber*> out;
  for (FiberCtl* c = live_head_; c != nullptr; c = c->live_next)
    if (c->fiber->state() == Fiber::State::kBlocked)
      out.push_back(c->fiber.get());
  return out;
}

// --- Time ----------------------------------------------------------------

void Machine::check_kill(FiberCtl* c) {
  if (!c->killed) return;
  // A destructor running during the FiberKill unwind may reach a yield
  // point; yielding mid-unwind would corrupt the fiber, so timed operations
  // silently complete instantly on an already-dying fiber.
  if (std::uncaught_exceptions() > 0) return;
  throw FiberKill{};
}

void Machine::charge(Time ns) {
  FiberCtl* c = current_ctl();
  if (c == nullptr) throw SimError("charge: not on a fiber");
  if (fault_checks_ && c->killed) {
    check_kill(c);
    return;  // in-flight exception: complete instantly, do not yield
  }
  const Time at = engine_.now() + ns;
  // Switch-free fast path: when this fiber's resume would be *strictly*
  // earlier than every pending event, the slow path's yield provably hands
  // control straight back — the engine would pop our fresh resume event
  // first (strictly earlier beats every pending time; a tie would lose on
  // sequence number, hence "strictly") and no other fiber, fault, or
  // probe-visible action can run in between.  So warp the clock and keep
  // going: no heap traffic, no context switch.  Disabled whenever anything
  // could legitimately interleave or watch: pending kills/faults
  // (fault_checks_), a requested engine stop, or attached probes (probed
  // runs deliberately ride the battle-tested slow path; the uncharged
  // harnesses then cross-check the two).  The skipped post_fiber_at also
  // never burns an engine sequence number, which is unobservable: relative
  // order among the *other* events is unchanged.
  if (cfg_.host_fastpath && !fault_checks_ && probes_.empty() &&
      !engine_.stop_requested() &&
      (engine_.empty() || at < engine_.next_time())) {
    engine_.warp_to(at);
    ++fastpath_charges_;
    return;
  }
  // A charge from inside a probe hook breaks the uncharged contract (hooks
  // run only when a probe is attached, which forfeits the fast path above —
  // so this check is complete here).
  if (hook_depth_ != 0) ++hook_charges_;
  assert(!c->resume_pending);
  c->resume_pending = true;
  block(c, engine_.post_fiber_and_take(at, c));
  if (fault_checks_) check_kill(c);
}

void Machine::charged_compute(Time ns) {
  stats_.node[current_node()].compute_ns += ns;
  charge(ns);
}

void Machine::sleep_until(Time t) {
  const Time n = now();
  charge(t > n ? t - n : 0);
}

void Machine::park() {
  FiberCtl* c = current_ctl();
  if (c == nullptr) throw SimError("park: not on a fiber");
  if (fault_checks_) {
    if (c->killed) {
      check_kill(c);
      return;
    }
    block(c, engine_.take_fiber_event());
    check_kill(c);
    return;
  }
  block(c, engine_.take_fiber_event());
}

void Machine::wakeup(Fiber* f, Time delay) {
  FiberCtl* c = ctl(f);
  if (c == nullptr) return;  // already finished
  if (c->killed) return;     // doomed; it unwinds through its own path
  if (c->resume_pending || f->state() == Fiber::State::kRunning) {
    // The target is not parked.  Single-threaded cooperative scheduling
    // means a correct synchronization layer re-checks its state before
    // parking, so dropping this wakeup is safe and expected.
    return;
  }
  schedule_resume(c, engine_.now() + delay);
}

// --- Faults ---------------------------------------------------------------

void Machine::kill_node(NodeId node, Time at, bool silent) {
  if (node >= cfg_.nodes) throw SimError("kill_node: bad node");
  fault_checks_ = true;
  engine_.post_at(at, [this, node, silent] { do_kill(node, silent); });
}

std::uint64_t Machine::on_node_death(std::function<void(NodeId)> fn) {
  const std::uint64_t id = next_observer_id_++;
  death_observers_.push_back({id, std::move(fn)});
  return id;
}

std::uint64_t Machine::on_node_crash(std::function<void(NodeId)> fn) {
  const std::uint64_t id = next_observer_id_++;
  crash_observers_.push_back({id, std::move(fn)});
  return id;
}

void Machine::remove_observer(std::uint64_t id) {
  const auto drop = [id](auto& list) {
    std::erase_if(list, [id](const auto& s) { return s.id == id; });
  };
  drop(death_observers_);
  drop(crash_observers_);
  drop(heal_observers_);
}

void Machine::do_kill(NodeId n, bool silent) {
  if (n >= cfg_.nodes || node_dead_[n]) return;
  node_dead_[n] = 1;
  ++dead_nodes_count_;
  // Observers first: recovery layers capture in-flight state (which task a
  // manager was running, which requests a server held) while the scheduler's
  // view of the node is still intact.  Index loop: an observer may register
  // further observers but must not unregister others.
  for (std::size_t i = 0; i < death_observers_.size(); ++i)
    death_observers_[i].fn(n);
  // The machine-check broadcast: skipped for a silent kill, so recovery
  // layers stay oblivious until a failure detector or a doomed reference
  // finds the corpse.
  if (!silent)
    for (std::size_t i = 0; i < crash_observers_.size(); ++i)
      crash_observers_[i].fn(n);
  // Now tear down the node's fibers, in spawn order.  Victims are collected
  // as Fiber* and re-validated through the map: one victim's unwind may
  // reap another (a destructor calling abandon()).
  std::vector<Fiber*> victims;
  for (FiberCtl* c = live_head_; c != nullptr; c = c->live_next)
    if (c->node == n) victims.push_back(c->fiber.get());
  for (Fiber* f : victims) {
    FiberCtl* c = ctl(f);
    if (c == nullptr) continue;
    c->killed = true;
    // A fiber with a resume already queued unwinds when that event fires
    // (charge() re-checks killed on wakeup).
    if (c->resume_pending) continue;
    if (f->state() == Fiber::State::kRunnable) {
      // Never ran: nothing on its stack to unwind, drop it outright.
      reap(c);
      continue;
    }
    // Parked: resume it so park() raises FiberKill and the stack unwinds
    // through run_body, running destructors along the way.
    enter(c);
  }
}

bool Machine::cut_between(NodeId a, NodeId b) const {
  const Time now = engine_.now();
  for (const Cut& c : cuts_) {
    if (now < c.start || now >= c.heal) continue;
    const std::int8_t sa = c.side[a];
    const std::int8_t sb = c.side[b];
    // Nodes listed on neither side keep full connectivity to both.
    if (sa != 0 && sb != 0 && sa != sb) return true;
  }
  return false;
}

bool Machine::reachable(NodeId a, NodeId b) const {
  if (a >= cfg_.nodes || b >= cfg_.nodes) return false;
  if (a == b) return true;
  if (has_cuts_ && cut_between(a, b)) return false;
  return fabric_.has_path(a, b);
}

void Machine::check_reach(NodeId req, NodeId home) {
  if (req == home || !cut_between(req, home)) return;
  ++stats_.net_unreachable_refs;
  // The requester pays the PNC's full futile retry budget: issue overhead
  // plus max_drop_retries timeouts into the void.  Giving up is never
  // cheaper than succeeding, so retry loops above stay honestly priced.
  charge(cfg_.issue_overhead_ns +
         static_cast<Time>(faults_.max_drop_retries) * faults_.drop_retry_ns);
  throw NetUnreachableError(req, home, "partition window");
}

std::uint64_t Machine::on_partition_heal(std::function<void(std::size_t)> fn) {
  const std::uint64_t id = next_observer_id_++;
  heal_observers_.push_back({id, std::move(fn)});
  // Heal events are posted lazily on first subscription: a plan whose heal
  // lies past the workload's natural end would otherwise keep every
  // unobserved run alive until the cut closed.
  if (!heal_events_posted_) {
    heal_events_posted_ = true;
    for (std::size_t i = 0; i < cuts_.size(); ++i)
      if (cuts_[i].heal > engine_.now())
        engine_.post_at(cuts_[i].heal, [this, i] { fire_heal(i); });
  }
  return id;
}

void Machine::fire_heal(std::size_t idx) {
  for (std::size_t i = 0; i < heal_observers_.size(); ++i)
    heal_observers_[i].fn(idx);
}

void Machine::check_target(NodeId home) {
  if (!node_dead_[home]) return;
  ++stats_.dead_node_refs;
  // The requester still pays for the failed transaction: issue overhead,
  // the trip out, and the error reply coming back.
  charge(cfg_.issue_overhead_ns + 2 * fabric_.traversal_ns());
  throw NodeDeadError(home);
}

void Machine::maybe_mem_fault(NodeId home) {
  if (faults_.mem_fault_prob <= 0.0) return;
  if (fault_rng_.uniform() >= faults_.mem_fault_prob) return;
  ++stats_.mem_faults_injected;
  throw MemoryFaultError(home);
}

void Machine::abandon(Fiber* f) {
  FiberCtl* c = ctl(f);
  if (c == nullptr) return;  // already finished
  assert(!c->resume_pending && f->state() != Fiber::State::kRunning);
  reap(c);
}

// --- Memory --------------------------------------------------------------

void Machine::ensure_backing(Node& nd, std::size_t end) const {
  if (end > cfg_.memory_per_node) throw SimError("physical address out of range");
  if (nd.mem.size() < end) {
    std::size_t grown = std::max(end, nd.mem.size() * 2);
    nd.mem.resize(std::min(grown, cfg_.memory_per_node), 0);
  }
}

std::uint8_t* Machine::raw_mut(PhysAddr a, std::size_t n) const {
  if (a.node >= cfg_.nodes) throw SimError("bad node in address");
  Node& nd = node_[a.node];
  ensure_backing(nd, static_cast<std::size_t>(a.offset) + n);
  return nd.mem.data() + a.offset;
}

PhysAddr Machine::alloc(NodeId node, std::size_t bytes) {
  if (node >= cfg_.nodes) throw SimError("alloc: bad node");
  if (fault_checks_ && node_dead_[node]) throw NodeDeadError(node);
  if (bytes == 0) bytes = 1;
  // Sizes round up to whole 8-byte units, so every block is 8-aligned.
  const auto size = static_cast<std::uint32_t>((bytes + 7) & ~std::size_t{7});
  Node& nd = node_[node];
  // First fit over freed blocks.
  for (std::size_t i = 0; i < nd.free_list.size(); ++i) {
    FreeBlock& fb = nd.free_list[i];
    if (fb.size >= size) {
      PhysAddr a{node, fb.offset};
      fb.offset += size;
      fb.size -= size;
      if (fb.size == 0) nd.free_list.erase(nd.free_list.begin() + i);
      nd.allocated += size;
      return a;
    }
  }
  if (nd.high_water + size > cfg_.memory_per_node)
    throw SimError("alloc: node memory exhausted");
  PhysAddr a{node, nd.high_water};
  nd.high_water += size;
  nd.allocated += size;
  return a;
}

void Machine::free(PhysAddr addr, std::size_t bytes) {
  if (addr.node >= cfg_.nodes) return;
  publish([](Probe& p, auto... x) { p.on_free(x...); }, addr, bytes);
  const auto size = static_cast<std::uint32_t>((bytes + 7) & ~std::size_t{7});
  Node& nd = node_[addr.node];
  nd.allocated -= std::min<std::size_t>(nd.allocated, size);
  // The free list is kept sorted by offset so adjacent blocks coalesce on
  // insert — alloc/free churn at one size can never grow it without bound.
  // (Offsets never influence timing — only the home *node* does — so the
  // address-ordered first fit this implies is simulation-neutral.)
  auto it = std::lower_bound(
      nd.free_list.begin(), nd.free_list.end(), addr.offset,
      [](const FreeBlock& fb, std::uint32_t off) { return fb.offset < off; });
  if (it != nd.free_list.begin()) {
    auto prev = it - 1;
    if (prev->offset + prev->size == addr.offset) {
      prev->size += size;
      if (it != nd.free_list.end() &&
          prev->offset + prev->size == it->offset) {
        prev->size += it->size;
        nd.free_list.erase(it);
      }
      return;
    }
  }
  if (it != nd.free_list.end() && addr.offset + size == it->offset) {
    it->offset = addr.offset;
    it->size += size;
    return;
  }
  nd.free_list.insert(it, FreeBlock{addr.offset, size});
}

std::size_t Machine::allocated_on(NodeId node) const {
  return node_[node].allocated;
}

Time Machine::reference_finish(NodeId req, NodeId home, std::uint32_t words,
                               Time* queue_ns) {
  const Time t = engine_.now() + cfg_.issue_overhead_ns;
  Time arrive;
  try {
    arrive = fabric_.route(req, home, t, words);
  } catch (const NetUnreachableError& e) {
    // Dead switch card with no detour, or the PNC's drop-retry budget ran
    // out: the requester pays for the issue plus every futile retry, then
    // the error surfaces with no data moved.
    ++stats_.net_unreachable_refs;
    charge(cfg_.issue_overhead_ns + e.wasted());
    throw;
  }
  Node& h = node_[home];
  const Time start = std::max(arrive, h.module_busy_until);
  if (queue_ns) *queue_ns = start - arrive;
  Time service = static_cast<Time>(words) * cfg_.module_service_ns;
  if (has_slow_) {
    const double f = slow_factor(home);
    if (f != 1.0)
      service = static_cast<Time>(static_cast<double>(service) * f);
  }
  h.module_busy_until = start + service;
  Time finish = start + service;
  if (req != home) finish += fabric_.traversal_ns();  // reply path
  return finish;
}

double Machine::slow_factor(NodeId n) const {
  if (!has_slow_) return 1.0;
  const Time now = engine_.now();
  for (const FaultPlan::SlowNode& s : faults_.slow_nodes)
    if (s.node == n && now >= s.from && now < s.until) return s.factor;
  return 1.0;
}

// --- Timed transactions ----------------------------------------------------
//
// Every timed memory operation is one PNC transaction served by its home
// module, run through three shared steps:
//   admit   the requester, then the address, dead-target and partition
//           checks (the last two charge the failed attempt, then throw);
//   time    the head reference's module timing plus its accounting: the
//           local/remote/serviced counts, the queueing, and on_reference;
//   settle  stall accounting, the charge, the memory-fault draw, and
//           on_access, in that order, so probes see an access when its data
//           moves: the caller moves the data next.

NodeId Machine::admit(NodeId home, NodeId home2) {
  const NodeId req = current_node();
  // Address validation precedes every charged check: a wild node id must
  // raise SimError, not index off node_[].
  if (home >= cfg_.nodes || home2 >= cfg_.nodes)
    throw SimError("bad node in address");
  if (fault_checks_) {
    check_target(home);
    if (home2 != home) check_target(home2);
    if (has_cuts_) {
      check_reach(req, home);
      if (home2 != home) check_reach(req, home2);
    }
  }
  return req;
}

Time Machine::time_txn(const Txn& t, Time* q) {
  const Time finish = reference_finish(t.req, t.a.node, t.head_words, q);
  NodeStats& s = stats_.node[t.req];
  if (t.remote) {
    s.remote_refs += t.refs;
    if (t.serviced) stats_.node[t.a.node].serviced_remote += t.refs;
  } else {
    s.local_refs += t.refs;
  }
  s.queue_ns += *q;
  trace_reference(t.req, t.a.node, t.words, *q, t.op);
  return finish;
}

void Machine::settle(const Txn& t, Time d) {
  stats_.node[t.req].stall_ns += d;
  charge(d);
  // A parity error voids the transaction: time charged, no data moved.
  if (t.faults && fault_checks_) maybe_mem_fault(t.a.node);
  observe_access(t.a, t.words, t.op, t.req);
}

void Machine::reference(PhysAddr a, std::uint32_t words, MemOp op) {
  const Txn t{.req = admit(a.node, a.node), .a = a, .words = words, .op = op};
  Time q = 0;
  const Time finish = time_txn(t, &q);
  settle(t, finish - engine_.now());
}

void Machine::combining_fetch_add_reference(PhysAddr a) {
  const Txn t{.req = admit(a.node, a.node), .a = a, .words = 1,
              .op = MemOp::kAtomic};
  const std::uint64_t key = chan_of(a);
  Time finish = 0;
  if (t.remote &&
      fabric_.combine_add(key, engine_.now() + cfg_.issue_overhead_ns,
                          &finish)) {
    // Follower: merged at a switch stage; never touches the home module.
    ++stats_.node[t.req].remote_refs;
    trace_reference(t.req, a.node, 1, 0, MemOp::kAtomic);
    finish = std::max(finish, engine_.now());
  } else {
    // Leader (or local): a plain reference, opening a combining window
    // that stays live until the reply fans back down.
    Time q = 0;
    finish = time_txn(t, &q);
    if (t.remote) fabric_.record_add(key, finish);
  }
  settle(t, finish - engine_.now());
}

template <typename Next>
std::uint32_t Machine::rmw(PhysAddr a, bool combine, Next next) {
  if (combine)
    combining_fetch_add_reference(a);
  else
    reference(a, 1, MemOp::kAtomic);
  std::uint8_t* p = raw_mut(a, 4);
  std::uint32_t old;
  std::memcpy(&old, p, 4);
  const std::uint32_t nv = next(old);
  std::memcpy(p, &nv, 4);
  return old;
}

std::uint32_t Machine::fetch_add_u32(PhysAddr a, std::uint32_t delta) {
  return rmw(a, combining_, [delta](std::uint32_t old) { return old + delta; });
}

std::uint32_t Machine::fetch_or_u32(PhysAddr a, std::uint32_t bits) {
  return rmw(a, false, [bits](std::uint32_t old) { return old | bits; });
}

std::uint32_t Machine::test_and_set(PhysAddr a) {
  return rmw(a, false, [](std::uint32_t) { return std::uint32_t{1}; });
}

std::uint32_t Machine::swap_u32(PhysAddr a, std::uint32_t v) {
  return rmw(a, false, [v](std::uint32_t) { return v; });
}

std::uint32_t Machine::cas_u32(PhysAddr a, std::uint32_t expect,
                               std::uint32_t desired) {
  return rmw(a, false, [expect, desired](std::uint32_t old) {
    return old == expect ? desired : old;
  });
}

void Machine::stream(const PhysAddr* dst, const PhysAddr* src,
                     std::size_t bytes, void* host_dst, const void* host_src) {
  if (bytes == 0) return;
  // The head reference goes to the source, or to the destination when the
  // source is the caller's private memory.  A copy is charged and counted
  // as one transaction to the source, remote when either end is.
  const bool copy = src != nullptr && dst != nullptr;
  const PhysAddr head = src != nullptr ? *src : *dst;
  const NodeId tail = dst != nullptr ? dst->node : head.node;
  const NodeId req = admit(head.node, tail);
  const std::uint32_t words = word_count(bytes);
  const Txn t{.req = req, .a = head, .words = words,
              .op = src != nullptr ? MemOp::kRead : MemOp::kWrite,
              .head_words = 1,
              .remote = head.node != req || tail != req,
              .serviced = false};
  Time q = 0;
  // Head of the transfer pays full reference latency...
  const Time finish = time_txn(t, &q);
  stats_.node[req].block_words += words;
  if (copy) trace_reference(req, tail, words, 0, MemOp::kWrite);
  // ...then words stream at the block rate, occupying each simulated end's
  // module (a same-node copy occupies it twice).
  const Time occupancy = static_cast<Time>(words) * cfg_.module_service_ns;
  for (const PhysAddr* end : {src, dst}) {
    if (end == nullptr) continue;
    Time& busy = node_[end->node].module_busy_until;
    busy = std::max(busy, finish) + occupancy;
  }
  settle(t, finish - engine_.now() +
                static_cast<Time>(words) * cfg_.block_word_ns);
  if (copy) observe_access(*dst, words, MemOp::kWrite, req);
  // Grow the destination's backing before taking the source pointer:
  // growing one node's backing reallocates it, and src and dst may share a
  // node.  memmove because same-node ranges may overlap.
  if (copy) raw_mut(*dst, bytes);
  const void* from = src != nullptr ? raw_mut(*src, bytes) : host_src;
  void* to = dst != nullptr ? raw_mut(*dst, bytes) : host_dst;
  std::memmove(to, from, bytes);
}

void Machine::block_copy(PhysAddr dst, PhysAddr src, std::size_t bytes) {
  stream(&dst, &src, bytes, nullptr, nullptr);
}

void Machine::block_read(void* host_dst, PhysAddr src, std::size_t bytes) {
  stream(nullptr, &src, bytes, host_dst, nullptr);
}

void Machine::block_write(PhysAddr dst, const void* host_src,
                          std::size_t bytes) {
  stream(&dst, nullptr, bytes, nullptr, host_src);
}

void Machine::access_words(PhysAddr a, std::uint32_t n) {
  if (n == 0) return;
  // n back-to-back single-word references; the requester is latency-bound,
  // so each starts when the previous completes.  Only the first can queue
  // behind foreign traffic (an approximation that keeps this O(1)).
  // Reported as aggregate traffic: counted for contention lints, never
  // race-checked (these calls model reference volume, not data accesses).
  const Txn t{.req = admit(a.node, a.node), .a = a, .words = n,
              .op = MemOp::kAggregate, .head_words = 1, .refs = n,
              .faults = false};
  Time q = 0;
  const Time first = time_txn(t, &q);
  const Time per = first - engine_.now() - q;  // uncontended latency
  node_[a.node].module_busy_until +=
      static_cast<Time>(n - 1) * cfg_.module_service_ns;
  settle(t, q + static_cast<Time>(n) * per);
}

}  // namespace bfly::sim
