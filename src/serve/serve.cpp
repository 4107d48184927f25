#include "serve/serve.hpp"

#include <algorithm>
#include <cstring>

namespace bfly::serve {

namespace {
constexpr std::uint32_t kNoRid = 0xffffffffu;
constexpr std::uint32_t kStopJob = 0xffffffffu;
constexpr std::uint32_t kReconcileJob = 0xfffffffeu;
constexpr std::uint32_t kNoReplicaIdx = 0xffffffffu;
/// What a shed costs the client: the rejected request's round trip.
constexpr sim::Time kShedCost = 100 * sim::kMicrosecond;
/// Give up re-replicating a block after this many attempts (each with the
/// retry policy's backoff); the block is then counted lost.
constexpr std::uint32_t kRepairMaxTries = 8;
}  // namespace

ReplicatedFs::ReplicatedFs(chrys::Kernel& k, bridge::BridgeFs& fs,
                           rescue::Membership* mem, ServeConfig cfg)
    : k_(k), m_(k.machine()), fs_(fs), mem_(mem), cfg_(cfg),
      rng_(cfg.seed) {
  if (cfg_.replicas == 0 || cfg_.replicas > fs_.servers())
    throw sim::SimError(
        "serve: replicas must be in [1, servers] — each replica needs its "
        "own server");
  if (cfg_.deadline == 0)
    throw sim::SimError(
        "serve: zero deadline — a serving layer without deadlines is just "
        "Bridge; give every request a budget");
  if (cfg_.retry.attempts == 0)
    throw sim::SimError("serve: retry.attempts must be >= 1");
  excised_.assign(m_.nodes(), 0);
  repair_dq_ = k_.make_dual_queue();
  // Crash tier: loud kills reach us through the machine-check broadcast
  // (after Bridge's own observer, which registered first, fail-replied the
  // dead servers' queues).  Silent kills arrive via the failure detector.
  crash_observer_ =
      m_.on_node_crash([this](sim::NodeId n) { excise_node(n); });
  if (mem_ != nullptr)
    mem_sub_ = mem_->subscribe([this](sim::NodeId n) { excise_node(n); });
  // Partition tier: when a cut heals, replay the dirty log so the stale
  // side converges without waiting for a foreground resync().
  if (m_.faults_possible())
    heal_observer_ = m_.on_partition_heal(
        [this](std::size_t) { queue_reconcile(); });
}

ReplicatedFs::~ReplicatedFs() {
  m_.remove_observer(crash_observer_);
  if (mem_ != nullptr && mem_sub_ != 0) mem_->unsubscribe(mem_sub_);
  m_.remove_observer(heal_observer_);
}

std::uint64_t ReplicatedFs::mix(std::uint64_t f, std::uint64_t b) {
  std::uint64_t z = f * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint32_t ReplicatedFs::phys_index(bridge::FileId f, std::uint32_t b,
                                       std::uint32_t r) const {
  const auto it = redirect_.find(key(f, b, r));
  if (it != redirect_.end()) return it->second;
  const std::uint32_t d = fs_.servers();
  const auto server = static_cast<std::uint32_t>((mix(f, b) + r) % d);
  // Slot (b*R + r) is unique per (b, r), so the physical index collides
  // with no other replica regardless of which server the hash picked.
  const std::uint32_t slot = b * cfg_.replicas + r;
  return slot * d + server;
}

bridge::FileId ReplicatedFs::open(const std::string& name,
                                  std::uint32_t max_blocks) {
  if (max_blocks == 0)
    throw sim::SimError("serve: max_blocks must be >= 1");
  bridge::FileId f;
  if (!fs_.lookup(name, &f)) f = fs_.create(name);
  while (nlogical_.size() <= f) {
    nlogical_.push_back(0);
    max_blocks_.push_back(0);
    repair_next_.push_back(0);
  }
  max_blocks_[f] = max_blocks;
  // Repair slots live above every slot normal placement can use.
  repair_next_[f] =
      std::max(repair_next_[f], max_blocks * cfg_.replicas);
  // Reopening after a restart: recover the logical length from the
  // physical extent (slot = phys / D, slot < nlogical * R for normal
  // placement; repair slots can only overestimate, so clamp).
  const std::uint32_t physn = fs_.blocks(f);
  if (physn > 0) {
    const std::uint32_t slot_max = (physn - 1) / fs_.servers();
    nlogical_[f] = std::min(
        max_blocks, (slot_max + cfg_.replicas) / cfg_.replicas);
  }
  return f;
}

void ReplicatedFs::record_latency(sim::Time t) {
  lat_ring_[lat_idx_] = t;
  lat_idx_ = (lat_idx_ + 1) % kHedgeWindow;
  if (lat_count_ < kHedgeWindow) ++lat_count_;
}

sim::Time ReplicatedFs::hedge_threshold() const {
  if (lat_count_ < cfg_.min_hedge_samples) return cfg_.hedge_floor;
  std::vector<sim::Time> v(lat_ring_.begin(), lat_ring_.begin() + lat_count_);
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      kHedgeQuantile * static_cast<double>(v.size() - 1));
  return std::max(cfg_.hedge_floor, v[idx]);
}

void ReplicatedFs::settle(chrys::Oid dq, std::uint32_t rid) {
  if (rid == kNoRid) return;
  if (!fs_.abandon_request(rid)) return;  // in flight; the bridge owns it
  // The reply raced our abandonment in: its token is in the queue (the
  // main loop consumes tokens the moment it sees them, so an outstanding
  // arm's token can only be here).  Drain until we meet it, re-enqueueing
  // tokens that belong to other still-outstanding arms.
  const std::size_t depth = k_.dq_depth(dq);
  std::uint32_t t;
  for (std::size_t i = 0; i <= depth; ++i) {
    if (!k_.dq_try_dequeue_uncharged(dq, &t)) break;
    if (t == rid) {
      fs_.finish_request(rid);
      return;
    }
    k_.dq_enqueue_uncharged(dq, t);
  }
}

Status ReplicatedFs::read(bridge::FileId f, std::uint32_t b, void* out) {
  sim::TraceSpan span(m_, "serve", "read", b);
  ++counters_.reads;
  const sim::Time t0 = m_.now();
  const sim::Time deadline_at = t0 + cfg_.deadline;
  const std::uint32_t r_count = cfg_.replicas;
  const chrys::Oid dq = k_.make_dual_queue();
  std::vector<std::uint8_t> scratch(bridge::kBlockSize);  // hedge arm
  const auto start = static_cast<std::uint32_t>(rng_.below(r_count));
  Status give_up = Status::kNoReplica;

  for (std::uint32_t attempt = 0; attempt < cfg_.retry.attempts; ++attempt) {
    if (attempt > 0) {
      const sim::Time back = cfg_.retry.backoff_jittered(attempt - 1, rng_);
      if (m_.now() + back >= deadline_at) break;  // no budget for a retry
      ++counters_.retries;
      ++m_.stats().serve_retries;
      m_.trace_instant("serve", "retry", attempt);
      k_.delay(back);
    }
    // Candidate scan: primary is the first live, non-shedding replica in
    // rotation order; the hedge candidate is the next one after it.
    std::uint32_t primary_r = kNoReplicaIdx;
    std::uint32_t hedge_r = kNoReplicaIdx;
    bool any_live = false;
    for (std::uint32_t i = 0; i < r_count; ++i) {
      const std::uint32_t r = (start + attempt + i) % r_count;
      if (!replica_alive(f, b, r)) continue;
      // Alive but on the far side of a partition (or behind dead switch
      // hardware): read-any means any *reachable* replica will do.
      if (!replica_reachable(f, b, r)) continue;
      any_live = true;
      if (primary_r == kNoReplicaIdx) {
        const std::uint32_t s = server_of_replica(f, b, r);
        if (fs_.queue_depth(s) >= cfg_.queue_limit) {
          ++counters_.sheds;
          ++m_.stats().serve_sheds;
          m_.trace_instant("serve", "shed", s);
          m_.charge(kShedCost);
          continue;
        }
        primary_r = r;
      } else if (server_of_replica(f, b, r) !=
                 server_of_replica(f, b, primary_r)) {
        hedge_r = r;
        break;
      }
    }
    if (primary_r == kNoReplicaIdx) {
      give_up = any_live ? Status::kShed : Status::kNoReplica;
      continue;
    }

    const std::uint32_t prid =
        fs_.submit_read(f, phys_index(f, b, primary_r), out, dq);
    std::uint32_t hrid = kNoRid;
    bool primary_out = true;
    bool hedge_out = false;
    const sim::Time hedge_at =
        (cfg_.hedge_reads && hedge_r != kNoReplicaIdx)
            ? m_.now() + hedge_threshold()
            : 0;
    bool won = false;

    while (primary_out || hedge_out) {
      const sim::Time now = m_.now();
      if (now >= deadline_at) break;
      const bool hedge_pending = hedge_at != 0 && hrid == kNoRid &&
                                 primary_out;
      sim::Time wait_until = deadline_at;
      if (hedge_pending && hedge_at < wait_until) wait_until = hedge_at;
      std::uint32_t tok;
      if (wait_until > now &&
          k_.dq_dequeue_for(dq, wait_until - now, &tok)) {
        const bool failed = fs_.request_failed(tok);
        const bool is_primary = tok == prid;
        if (is_primary)
          primary_out = false;
        else
          hedge_out = false;
        if (failed) {
          fs_.finish_request(tok);
          continue;
        }
        const std::uint32_t wr = is_primary ? primary_r : hedge_r;
        const std::uint32_t ws = server_of_replica(f, b, wr);
        if (!is_primary) {
          ++counters_.hedge_wins;
          ++m_.stats().serve_hedge_wins;
          std::memcpy(out, scratch.data(), bridge::kBlockSize);
        }
        fs_.finish_request(tok);
        try {
          // The block travels back across the switch.
          m_.access_words(sim::PhysAddr{fs_.server_node(ws), 0},
                          bridge::kBlockSize / 4 / 8);
        } catch (const sim::NodeDeadError&) {
          // The server died between its reply and our data pull — the
          // block died with it.  Treat it exactly like a fail-reply: the
          // other arm (or the next attempt) can still win.
          continue;
        } catch (const sim::NetUnreachableError&) {
          // A partition window opened between the reply and the pull.
          // Same recovery: let the other arm or the next rotation try.
          continue;
        }
        won = true;
        break;
      }
      if (hedge_pending && m_.now() >= hedge_at && m_.now() < deadline_at) {
        hrid = fs_.submit_read(f, phys_index(f, b, hedge_r),
                               scratch.data(), dq);
        hedge_out = true;
        ++counters_.hedges;
        ++m_.stats().serve_hedges;
        m_.trace_instant("serve", "hedge", b);
        continue;
      }
      break;  // deadline
    }

    if (won) {
      if (primary_out) settle(dq, prid);
      if (hedge_out) settle(dq, hrid);
      fs_.release_reply_queue(dq);
      record_latency(m_.now() - t0);
      return Status::kOk;
    }
    if (m_.now() >= deadline_at) {
      if (primary_out) settle(dq, prid);
      if (hedge_out) settle(dq, hrid);
      ++counters_.timeouts;
      ++m_.stats().serve_timeouts;
      m_.trace_instant("serve", "timeout", b);
      fs_.release_reply_queue(dq);
      return Status::kTimeout;
    }
    // Every issued arm fail-replied (its server died): rotate replicas.
    give_up = Status::kNoReplica;
  }
  fs_.release_reply_queue(dq);
  return give_up;
}

Status ReplicatedFs::write(bridge::FileId f, std::uint32_t b,
                           const void* data) {
  if (b >= max_blocks_[f])
    throw sim::SimError("serve: write past max_blocks — repair slots live "
                        "above the declared capacity");
  sim::TraceSpan span(m_, "serve", "write", b);
  ++counters_.writes;
  // A write racing a resync_block() scan of the same block can be outvoted
  // by the replicas read before it landed and silently reverted — an acked
  // write lost.  Stall until the scan is done; reconciliation is rare and
  // short, and a stale *read* during it is already allowed by read-any.
  const std::uint64_t fb =
      (static_cast<std::uint64_t>(f) << 32) | b;
  while (resync_busy_.count(fb) != 0) k_.delay(1 * sim::kMillisecond);
  const sim::Time deadline_at = m_.now() + cfg_.deadline;
  if (b >= nlogical_[f]) nlogical_[f] = b + 1;
  const std::uint32_t r_count = cfg_.replicas;
  const chrys::Oid dq = k_.make_dual_queue();
  std::vector<std::uint8_t> need(r_count, 1);
  // Per-arm fate: dead arms shrink the quorum denominator (their server is
  // a corpse; repair relocates them), unreachable arms arm the quorum rule
  // (their server will return; the dirty log reconverges them at heal).
  std::vector<std::uint8_t> dead_arm(r_count, 0);
  std::vector<std::uint8_t> unreach_arm(r_count, 0);
  std::vector<std::uint8_t> committed_arm(r_count, 0);
  std::uint32_t committed = 0;
  bool any_shed_last = false;

  // An ack with any unreachable arm needs commits on a majority of the
  // non-dead replicas — the side of the split holding fewer than half of a
  // block's replicas must refuse, or a heal faces two acked histories.
  // With no unreachable arm the legacy any-commit ack stands unchanged.
  const auto decide = [&](Status on_none) -> Status {
    std::uint32_t dead = 0, unreach = 0;
    for (std::uint32_t r = 0; r < r_count; ++r) {
      dead += dead_arm[r];
      unreach += unreach_arm[r];
    }
    if (unreach == 0) return committed > 0 ? Status::kOk : on_none;
    const auto log_dirty = [&](const std::vector<std::uint8_t>& arms) {
      for (std::uint32_t r = 0; r < r_count; ++r) {
        if (!arms[r]) continue;
        if (dirty_.insert(key(f, b, r)).second) {
          ++counters_.dirty_logged;
          ++m_.stats().serve_dirty_logged;
        }
      }
    };
    const std::uint32_t quorum = (r_count - dead) / 2 + 1;
    if (committed < quorum) {
      // Refused — but any arm that *did* commit is now a rogue replica
      // carrying unacked content.  Log it so the heal's majority vote
      // reverts it; without this a post-heal read-any could surface a
      // write the client was told failed.
      if (committed > 0) log_dirty(committed_arm);
      ++counters_.quorum_rejects;
      ++m_.stats().serve_quorum_rejects;
      m_.trace_instant("serve", "no_quorum", b);
      return Status::kNoQuorum;
    }
    log_dirty(unreach_arm);
    return Status::kOk;
  };

  for (std::uint32_t attempt = 0; attempt < cfg_.retry.attempts; ++attempt) {
    if (attempt > 0) {
      const sim::Time back = cfg_.retry.backoff_jittered(attempt - 1, rng_);
      if (m_.now() + back >= deadline_at) break;
      ++counters_.retries;
      ++m_.stats().serve_retries;
      m_.trace_instant("serve", "retry", attempt);
      k_.delay(back);
    }
    // Write-all: one arm per live replica still needing the block.
    std::vector<std::uint32_t> rids;
    std::vector<std::uint32_t> rid_rep;
    any_shed_last = false;
    for (std::uint32_t r = 0; r < r_count; ++r) {
      if (!need[r]) continue;
      if (!replica_alive(f, b, r)) {
        ++counters_.failed_replicas;
        queue_repair(f, b, r);
        need[r] = 0;
        dead_arm[r] = 1;
        continue;
      }
      if (!replica_reachable(f, b, r)) {
        // Alive across a partition: no repair (the replica is not lost)
        // and no charged attempts against a cut we already know about —
        // the arm goes to the quorum rule and, on ack, the dirty log.
        need[r] = 0;
        unreach_arm[r] = 1;
        continue;
      }
      const std::uint32_t s = server_of_replica(f, b, r);
      if (fs_.queue_depth(s) >= cfg_.queue_limit) {
        ++counters_.sheds;
        ++m_.stats().serve_sheds;
        m_.trace_instant("serve", "shed", s);
        m_.charge(kShedCost);
        any_shed_last = true;
        continue;  // still needed next attempt
      }
      rids.push_back(fs_.submit_write(f, phys_index(f, b, r), data, dq));
      rid_rep.push_back(r);
    }

    std::vector<std::uint8_t> outstanding(rids.size(), 1);
    std::size_t left = rids.size();
    bool timed_out = false;
    while (left > 0) {
      const sim::Time now = m_.now();
      if (now >= deadline_at) {
        timed_out = true;
        break;
      }
      std::uint32_t tok;
      if (!k_.dq_dequeue_for(dq, deadline_at - now, &tok)) {
        timed_out = true;
        break;
      }
      for (std::size_t i = 0; i < rids.size(); ++i) {
        if (rids[i] != tok || !outstanding[i]) continue;
        outstanding[i] = 0;
        --left;
        if (fs_.request_failed(tok)) {
          if (fs_.request_unreachable(tok)) {
            // The cut opened mid-request: partition fate, not death —
            // no relocation; reconciliation owns this arm after the heal.
            need[rid_rep[i]] = 0;
            unreach_arm[rid_rep[i]] = 1;
          } else {
            ++counters_.failed_replicas;
            queue_repair(f, b, rid_rep[i]);
            need[rid_rep[i]] = 0;  // its server is dead; repair relocates
            dead_arm[rid_rep[i]] = 1;
          }
        } else {
          need[rid_rep[i]] = 0;
          committed_arm[rid_rep[i]] = 1;
          ++committed;
        }
        fs_.finish_request(tok);
        break;
      }
    }
    if (timed_out) {
      for (std::size_t i = 0; i < rids.size(); ++i)
        if (outstanding[i]) settle(dq, rids[i]);
      ++counters_.timeouts;
      ++m_.stats().serve_timeouts;
      m_.trace_instant("serve", "timeout", b);
      fs_.release_reply_queue(dq);
      // Partial success still serves readers; abandoned arms may or may
      // not have committed — resync() is the converger either way.  Under
      // a partition the quorum rule overrides: no minority-side acks.
      return decide(Status::kTimeout);
    }
    bool done = true;
    for (std::uint32_t r = 0; r < r_count; ++r)
      if (need[r]) done = false;
    if (done) break;
  }
  fs_.release_reply_queue(dq);
  return decide(any_shed_last ? Status::kShed : Status::kNoReplica);
}

// --- Excision & repair ----------------------------------------------------

void ReplicatedFs::excise_node(sim::NodeId n) {
  if (n >= m_.nodes() || m_.node_alive(n)) return;  // never the living
  if (excised_[n]) return;
  excised_[n] = 1;
  m_.trace_instant("serve", "excise", n);
  fs_.excise_node(n);  // no-op if the crash broadcast already did it
  queue_repairs_for_node(n);
}

void ReplicatedFs::queue_repairs_for_node(sim::NodeId n) {
  for (bridge::FileId f = 0; f < nlogical_.size(); ++f) {
    for (std::uint32_t b = 0; b < nlogical_[f]; ++b) {
      for (std::uint32_t r = 0; r < cfg_.replicas; ++r) {
        const std::uint32_t s = server_of_replica(f, b, r);
        if (fs_.server_node(s) == n) queue_repair(f, b, r);
      }
    }
  }
}

void ReplicatedFs::queue_repair(bridge::FileId f, std::uint32_t b,
                                std::uint32_t r) {
  if (!repair_inflight_.insert(key(f, b, r)).second) return;  // queued
  std::uint32_t j;
  if (!repair_free_.empty()) {
    j = repair_free_.back();
    repair_free_.pop_back();
    repair_jobs_[j] = RepairJob{f, b, r, 0};
  } else {
    repair_jobs_.push_back(RepairJob{f, b, r, 0});
    j = static_cast<std::uint32_t>(repair_jobs_.size() - 1);
  }
  ++pending_repairs_;
  // Uncharged: repairs are queued from observer context (node death).
  k_.dq_enqueue_uncharged(repair_dq_, j);
}

void ReplicatedFs::start_repair(sim::NodeId node) {
  if (repair_running_) return;
  repair_running_ = true;
  repair_stopping_ = false;
  repair_node_ = node;
  k_.create_process(node, [this] { repair_loop(); }, "serve-repair");
}

void ReplicatedFs::stop_repair() {
  if (!repair_running_ || repair_stopping_) return;
  repair_stopping_ = true;
  k_.dq_enqueue_uncharged(repair_dq_, kStopJob);
  // Join: the worker reads this object until it exits, so blocking here
  // (callers are on a process) is what makes "call before teardown" safe.
  // A worker whose node was killed never wakes; don't wait for a corpse.
  while (repair_running_ && m_.node_alive(repair_node_))
    k_.delay(1 * sim::kMillisecond);
}

void ReplicatedFs::queue_reconcile() {
  if (dirty_.empty() || reconcile_queued_) return;
  reconcile_queued_ = true;
  ++pending_repairs_;
  // Uncharged: heal observers fire from engine context, not a process.
  k_.dq_enqueue_uncharged(repair_dq_, kReconcileJob);
}

void ReplicatedFs::reconcile() {
  // Sorted keys, one resync_block per distinct (file, block): the replay
  // order is a pure function of the log's contents, so Instant Replay
  // holds across the heal.
  std::vector<std::uint64_t> keys(dirty_.begin(), dirty_.end());
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size();) {
    const std::uint64_t fb = keys[i] >> 8;
    std::size_t end = i;
    while (end < keys.size() && (keys[end] >> 8) == fb) ++end;
    const auto f = static_cast<bridge::FileId>(fb >> 32);
    const auto b = static_cast<std::uint32_t>(fb & 0xffffffffu);
    bool healed = true;
    try {
      resync_block(f, b);
    } catch (const chrys::ThrowSignal&) {
      // A server died (or a new cut opened) mid-reconcile: keep this
      // block's keys dirty; a later heal or foreground resync converges.
      healed = false;
    }
    if (healed) {
      for (std::size_t kki = i; kki < end; ++kki) dirty_.erase(keys[kki]);
      ++counters_.reconciled;
      ++m_.stats().serve_reconciled;
      m_.trace_instant("serve", "reconcile", b);
    }
    i = end;
  }
}

void ReplicatedFs::repair_loop() {
  while (true) {
    const std::uint32_t j = k_.dq_dequeue(repair_dq_);
    if (j == kStopJob) break;
    if (j == kReconcileJob) {
      reconcile_queued_ = false;
      reconcile();
      --pending_repairs_;
      continue;
    }
    RepairJob job = repair_jobs_[j];
    repair_free_.push_back(j);
    bool settled = false;
    try {
      settled = do_repair(job);
    } catch (const chrys::ThrowSignal&) {
      settled = false;  // a server died under us; retry elsewhere
    }
    if (!settled && job.tries + 1 < kRepairMaxTries) {
      ++job.tries;
      k_.delay(cfg_.retry.backoff(job.tries));
      std::uint32_t nj;
      if (!repair_free_.empty()) {
        nj = repair_free_.back();
        repair_free_.pop_back();
        repair_jobs_[nj] = job;
      } else {
        repair_jobs_.push_back(job);
        nj = static_cast<std::uint32_t>(repair_jobs_.size() - 1);
      }
      k_.dq_enqueue_uncharged(repair_dq_, nj);
      continue;  // still pending; inflight key stays claimed
    }
    if (!settled) {
      ++counters_.lost_blocks;
      m_.trace_instant("serve", "repair_lost", job.block);
    }
    repair_inflight_.erase(key(job.file, job.block, job.replica));
    --pending_repairs_;
  }
  repair_running_ = false;
}

bool ReplicatedFs::do_repair(const RepairJob& j) {
  // A duplicate or raced job whose replica is already reachable is moot.
  if (replica_alive(j.file, j.block, j.replica)) return true;
  sim::TraceSpan span(m_, "serve", "repair", j.block);
  // 1. Read any surviving replica.
  std::vector<std::uint8_t> buf(bridge::kBlockSize);
  bool have = false;
  for (std::uint32_t r2 = 0; r2 < cfg_.replicas && !have; ++r2) {
    if (r2 == j.replica || !replica_alive(j.file, j.block, r2)) continue;
    try {
      have = fs_.read_block_for(j.file, phys_index(j.file, j.block, r2),
                                buf.data(), cfg_.deadline);
    } catch (const chrys::ThrowSignal&) {
      // that server just died too; try the next replica
    }
  }
  if (!have) return false;
  // 2. Place the new copy on the first live server (in hash rotation
  //    order) that holds no other replica of this block.
  const std::uint32_t d = fs_.servers();
  const auto base = static_cast<std::uint32_t>(
      (mix(j.file, j.block) + j.replica) % d);
  for (std::uint32_t i = 1; i < d; ++i) {
    const std::uint32_t t = (base + i) % d;
    if (!fs_.server_alive(t)) continue;
    bool taken = false;
    for (std::uint32_t r2 = 0; r2 < cfg_.replicas; ++r2) {
      if (r2 != j.replica && server_of_replica(j.file, j.block, r2) == t)
        taken = true;
    }
    if (taken) continue;
    const std::uint32_t slot = repair_next_[j.file]++;
    const std::uint32_t phys = slot * d + t;
    try {
      if (!fs_.write_block_for(j.file, phys, buf.data(), cfg_.deadline))
        continue;  // slot wasted, target considered again next try
    } catch (const chrys::ThrowSignal&) {
      continue;
    }
    redirect_[key(j.file, j.block, j.replica)] = phys;
    ++counters_.rereplications;
    ++m_.stats().serve_rereplications;
    m_.trace_instant("serve", "rereplicate", j.block);
    return true;
  }
  return false;
}

std::uint32_t ReplicatedFs::live_replicas(bridge::FileId f,
                                          std::uint32_t b) const {
  std::uint32_t n = 0;
  for (std::uint32_t r = 0; r < cfg_.replicas; ++r)
    if (replica_alive(f, b, r)) ++n;
  return n;
}

std::uint32_t ReplicatedFs::resync_block(bridge::FileId f, std::uint32_t b) {
  // Fence concurrent writers off this block for the whole scan-vote-rewrite
  // pass (see the stall in write()); the guard survives the throws the
  // per-replica try/catches below can let escape.
  const std::uint64_t fb = (static_cast<std::uint64_t>(f) << 32) | b;
  struct BusyGuard {
    std::unordered_set<std::uint64_t>& set;
    std::uint64_t key;
    ~BusyGuard() { set.erase(key); }
  } guard{resync_busy_, fb};
  resync_busy_.insert(fb);
  const std::uint32_t r_count = cfg_.replicas;
  std::uint32_t rewrites = 0;
  std::vector<std::vector<std::uint8_t>> copy(r_count);
  std::vector<std::uint8_t> okr(r_count, 0);
  std::uint32_t have = 0;
  for (std::uint32_t r = 0; r < r_count; ++r) {
    copy[r].assign(bridge::kBlockSize, 0);
    if (!replica_alive(f, b, r)) continue;
    try {
      if (fs_.read_block_for(f, phys_index(f, b, r), copy[r].data(),
                             cfg_.deadline)) {
        okr[r] = 1;
        ++have;
      }
    } catch (const chrys::ThrowSignal&) {
    }
  }
  if (have == 0) {
    ++counters_.lost_blocks;
    return 0;
  }
  // Majority content vote; ties break to the lowest replica index.
  std::uint32_t best = kNoReplicaIdx;
  std::uint32_t best_votes = 0;
  for (std::uint32_t r = 0; r < r_count; ++r) {
    if (!okr[r]) continue;
    std::uint32_t votes = 0;
    for (std::uint32_t r2 = 0; r2 < r_count; ++r2)
      if (okr[r2] && copy[r2] == copy[r]) ++votes;
    if (votes > best_votes) {
      best_votes = votes;
      best = r;
    }
  }
  for (std::uint32_t r = 0; r < r_count; ++r) {
    if (okr[r] && copy[r] == copy[best]) continue;
    if (!replica_alive(f, b, r)) {
      queue_repair(f, b, r);  // relocation is the background path
      continue;
    }
    try {
      if (fs_.write_block_for(f, phys_index(f, b, r), copy[best].data(),
                              cfg_.deadline))
        ++rewrites;
    } catch (const chrys::ThrowSignal&) {
    }
  }
  return rewrites;
}

std::uint32_t ReplicatedFs::resync(bridge::FileId f) {
  sim::TraceSpan span(m_, "serve", "resync", f);
  std::uint32_t rewrites = 0;
  for (std::uint32_t b = 0; b < nlogical_[f]; ++b)
    rewrites += resync_block(f, b);
  return rewrites;
}

}  // namespace bfly::serve
