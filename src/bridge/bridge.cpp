#include "bridge/bridge.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace bfly::bridge {

namespace {
constexpr sim::Time kRequestOverhead = 100 * sim::kMicrosecond;
// Per-record comparison work during scans/merges.
constexpr std::uint64_t kScanOpsPerBlock = kBlockSize / 16;
constexpr std::uint32_t kNoRid = 0xffffffffu;
}  // namespace

BridgeFs::BridgeFs(chrys::Kernel& k, std::uint32_t servers, DiskParams disk,
                   StableStore* persist)
    : k_(k), m_(k.machine()), nservers_(servers), disk_params_(disk),
      persist_(persist) {
  done_dq_ = k_.make_dual_queue();
  for (std::uint32_t s = 0; s < nservers_; ++s) {
    auto sv = std::make_unique<Server>(disk_params_);
    sv->node = s % m_.nodes();
    sv->req_dq = k_.make_dual_queue();
    servers_.push_back(std::move(sv));
  }
  if (persist_ != nullptr && !persist_->empty()) {
    if (persist_->servers != nservers_)
      throw sim::SimError(
          "BridgeFs: stable-store image was written with a different server "
          "count; interleaving would scramble every file");
    for (const auto& fi : persist_->files)
      files_.push_back(FileMeta{fi.name, fi.nblocks});
    for (std::uint32_t s = 0; s < nservers_; ++s)
      servers_[s]->store = persist_->stores[s];
  }
  for (std::uint32_t s = 0; s < nservers_; ++s) {
    k_.create_process(servers_[s]->node, [this, s] { server_loop(s); },
                      "bridge-srv" + std::to_string(s));
  }
  servers_alive_ = nservers_;
  // Crash tier: the file system hears broadcast deaths; a silently killed
  // server node is reported by a failure detector through excise_node.
  crash_observer_ =
      m_.on_node_crash([this](sim::NodeId n) { handle_node_death(n); });
}

BridgeFs::~BridgeFs() {
  persist();
  m_.remove_observer(crash_observer_);
}

void BridgeFs::persist() {
  if (persist_ == nullptr) return;
  persist_->servers = nservers_;
  persist_->files.clear();
  for (const auto& f : files_)
    persist_->files.push_back(StableStore::FileImage{f.name, f.nblocks});
  persist_->stores.assign(nservers_, {});
  for (std::uint32_t s = 0; s < nservers_; ++s)
    persist_->stores[s] = servers_[s]->store;
}

void BridgeFs::excise_node(sim::NodeId n) {
  if (n >= m_.nodes() || m_.node_alive(n)) return;  // never excise the living
  handle_node_death(n);
}

void BridgeFs::fail_abandoned(std::uint32_t s) {
  std::uint32_t rid;
  while (k_.dq_try_dequeue_uncharged(servers_[s]->req_dq, &rid)) {
    Request& rq = reqs_[rid];
    if (rq.abandoned) {
      complete_abandoned(rid);  // nobody is waiting; just reclaim
      continue;
    }
    rq.failed = true;
    rq.replied = true;
    k_.dq_enqueue_uncharged(rq.reply_dq, rid);
  }
}

void BridgeFs::handle_node_death(sim::NodeId n) {
  for (std::uint32_t s = 0; s < nservers_; ++s) {
    Server& sv = *servers_[s];
    if (!sv.alive || sv.node != n) continue;
    sv.alive = false;
    --servers_alive_;
    ++servers_lost_;
    // Every client is owed exactly one reply per request.  Fail-reply the
    // one being served when the node died, then everything still queued.
    if (sv.current_rid != kNoRid) {
      Request& rq = reqs_[sv.current_rid];
      if (rq.abandoned) {
        complete_abandoned(sv.current_rid);
      } else {
        rq.failed = true;
        rq.replied = true;
        k_.dq_enqueue_uncharged(rq.reply_dq, sv.current_rid);
      }
      sv.current_rid = kNoRid;
    }
    fail_abandoned(s);
  }
}

FileId BridgeFs::create(std::string name) {
  files_.push_back(FileMeta{std::move(name), 0});
  for (auto& sv : servers_) sv->store.emplace_back();
  return static_cast<FileId>(files_.size() - 1);
}

bool BridgeFs::lookup(const std::string& name, FileId* out) const {
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].name == name) {
      *out = static_cast<FileId>(i);
      return true;
    }
  }
  return false;
}

std::uint32_t BridgeFs::blocks(FileId f) const { return files_[f].nblocks; }

std::vector<std::uint8_t>& BridgeFs::block_ref(std::uint32_t s, FileId f,
                                               std::uint32_t local) {
  auto& file_store = servers_[s]->store[f];
  if (file_store.size() <= local) file_store.resize(local + 1);
  if (file_store[local].empty()) file_store[local].assign(kBlockSize, 0);
  return file_store[local];
}

void BridgeFs::charge_disk(Server& sv, std::uint32_t lbn) {
  // A gray-failed node is slow all the way down: its disk controller shares
  // the stretched service window (sim::FaultPlan::slow).
  const sim::Time done =
      sv.disk.access(m_.now(), lbn, m_.slow_factor(sv.node));
  m_.charge(done - m_.now());
}

void BridgeFs::server_loop(std::uint32_t s) {
  Server& sv = *servers_[s];
  while (true) {
    const std::uint32_t rid = k_.dq_dequeue(sv.req_dq);
    // Claim the request host-side before any charge: if this node dies
    // mid-service, the death observer fail-replies exactly this rid.
    sv.current_rid = rid;
    Request& rq = reqs_[rid];
    if (rq.abandoned) {
      // Cancelled while queued: the client is gone, skip the disk entirely
      // (this is what makes a hedge's losing arm cheap).
      complete_abandoned(rid);
      sv.current_rid = kNoRid;
      continue;
    }
    sim::TraceSpan span(m_, "bridge", "serve",
                        static_cast<std::uint64_t>(rq.op));
    bool stop = false;
    switch (rq.op) {
      case Request::kRead: {
        const std::uint32_t local = rq.index / nservers_;
        charge_disk(sv, rq.file * 65536 + local);
        const auto& blk = block_ref(s, rq.file, local);
        // The client may have abandoned us during the disk charge and its
        // buffer may be gone: re-check before every data move.
        if (!rq.abandoned) std::memcpy(rq.rdata, blk.data(), kBlockSize);
        break;
      }
      case Request::kWrite: {
        const std::uint32_t local = rq.index / nservers_;
        charge_disk(sv, rq.file * 65536 + local);
        auto& blk = block_ref(s, rq.file, local);
        // An abandoned write does not commit — the deadline passed, the
        // caller counts it failed, and the replica is repaired by resync.
        if (!rq.abandoned) std::memcpy(blk.data(), rq.wdata, kBlockSize);
        break;
      }
      case Request::kToolCopy: {
        const std::uint32_t n = local_count(rq.file, s);
        for (std::uint32_t l = 0; l < n; ++l) {
          charge_disk(sv, rq.file * 65536 + l);   // read src
          charge_disk(sv, rq.file2 * 65536 + l);  // write dst
          block_ref(s, rq.file2, l) = block_ref(s, rq.file, l);
        }
        rq.result = n;
        break;
      }
      case Request::kToolSearch: {
        const std::uint32_t n = local_count(rq.file, s);
        std::uint64_t count = 0;
        for (std::uint32_t l = 0; l < n; ++l) {
          charge_disk(sv, rq.file * 65536 + l);
          m_.compute(kScanOpsPerBlock);
          for (std::uint8_t b : block_ref(s, rq.file, l))
            if (b == rq.needle) ++count;
        }
        rq.result = count;
        break;
      }
      case Request::kToolCompare: {
        const std::uint32_t n = local_count(rq.file, s);
        std::uint64_t diff = 0;
        for (std::uint32_t l = 0; l < n; ++l) {
          charge_disk(sv, rq.file * 65536 + l);
          charge_disk(sv, rq.file2 * 65536 + l);
          m_.compute(kScanOpsPerBlock);
          if (block_ref(s, rq.file, l) != block_ref(s, rq.file2, l)) ++diff;
        }
        rq.result = diff;
        break;
      }
      case Request::kToolSortLocal: {
        const std::uint32_t n = local_count(rq.file, s);
        std::vector<std::uint32_t> recs;
        recs.reserve(static_cast<std::size_t>(n) * (kBlockSize / 4));
        for (std::uint32_t l = 0; l < n; ++l) {
          charge_disk(sv, rq.file * 65536 + l);
          const auto& blk = block_ref(s, rq.file, l);
          const auto* p = reinterpret_cast<const std::uint32_t*>(blk.data());
          recs.insert(recs.end(), p, p + kBlockSize / 4);
        }
        if (!recs.empty()) {
          m_.compute(recs.size() * 4);  // ~n log n record moves
          std::sort(recs.begin(), recs.end());
        }
        for (std::uint32_t l = 0; l < n; ++l) {
          charge_disk(sv, rq.file * 65536 + l);
          auto& blk = block_ref(s, rq.file, l);
          std::memcpy(blk.data(), recs.data() + l * (kBlockSize / 4),
                      kBlockSize);
        }
        rq.result = n;
        break;
      }
      case Request::kStop:
        stop = true;
        break;
    }
    if (rq.abandoned) {
      complete_abandoned(rid);
      sv.current_rid = kNoRid;
      if (stop) break;
      continue;
    }
    k_.dq_enqueue(rq.reply_dq, rid);
    // Mark replied only after the charged enqueue completes: if the node
    // dies mid-enqueue the token was not delivered, and the death observer
    // must still fail-reply this rid.  A client that gave up during the
    // enqueue left the token on a queue nobody reads: reclaim it as
    // abandoned.
    if (rq.abandoned)
      complete_abandoned(rid);
    else
      rq.replied = true;
    sv.current_rid = kNoRid;
    if (stop) break;
  }
  sv.alive = false;
  --servers_alive_;
}

std::uint32_t BridgeFs::local_count(FileId f, std::uint32_t s) const {
  const std::uint32_t n = files_[f].nblocks;
  // Blocks s, s+D, s+2D, ... below n.
  return n > s ? (n - s - 1) / nservers_ + 1 : 0;
}

void BridgeFs::write_block(FileId f, std::uint32_t index, const void* data) {
  (void)write_block_for(f, index, data, 0);
}

void BridgeFs::read_block(FileId f, std::uint32_t index, void* out) {
  (void)read_block_for(f, index, out, 0);
}

bool BridgeFs::write_block_for(FileId f, std::uint32_t index, const void* data,
                               sim::Time budget) {
  const std::uint32_t s = index % nservers_;
  if (!servers_[s]->alive)
    throw chrys::ThrowSignal{chrys::kThrowNodeDead, servers_[s]->node};
  files_[f].nblocks = std::max(files_[f].nblocks, index + 1);
  sim::TraceSpan span(m_, "bridge", "write_block", index);
  m_.charge(kRequestOverhead);
  try {
    // The block travels to the server's node across the switch.
    m_.access_words(sim::PhysAddr{servers_[s]->node, 0}, kBlockSize / 4 / 8);
  } catch (const sim::NodeDeadError&) {
    // Touching the corpse revealed a silent death; keep the documented
    // contract (dead stripe throws the Chrysalis signal, not a raw
    // machine error).
    throw chrys::ThrowSignal{chrys::kThrowNodeDead, servers_[s]->node};
  } catch (const sim::NetUnreachableError&) {
    // The server is cut off, not dead: same signal discipline, distinct
    // code, so callers can retry after the heal instead of repairing.
    throw chrys::ThrowSignal{chrys::kThrowNetUnreachable, servers_[s]->node};
  }
  const chrys::Oid reply = k_.make_dual_queue();
  Request rq;
  rq.op = Request::kWrite;
  rq.file = f;
  rq.index = index;
  rq.wdata = data;
  rq.reply_dq = reply;
  const std::uint32_t rid = put_request(std::move(rq));
  k_.dq_enqueue(servers_[s]->req_dq, rid);
  // The server may have died while we shipped the request, after its death
  // observer drained the queue; fail-reply our own stranded rid.
  if (!servers_[s]->alive) fail_abandoned(s);
  std::uint32_t tok;
  if (budget == 0) {
    (void)k_.dq_dequeue(reply);
  } else if (!k_.dq_dequeue_for(reply, budget, &tok)) {
    if (!abandon_request(rid)) {
      // Still in flight: the bridge owns the slot now, we walk away.
      release_reply_queue(reply);
      return false;
    }
    (void)k_.dq_try_dequeue_uncharged(reply, &tok);  // reply raced us in
  }
  const bool failed = reqs_[rid].failed;
  release_request(rid);
  k_.delete_object(reply);
  if (failed)
    throw chrys::ThrowSignal{chrys::kThrowNodeDead, servers_[s]->node};
  return true;
}

bool BridgeFs::read_block_for(FileId f, std::uint32_t index, void* out,
                              sim::Time budget) {
  const std::uint32_t s = index % nservers_;
  if (!servers_[s]->alive)
    throw chrys::ThrowSignal{chrys::kThrowNodeDead, servers_[s]->node};
  sim::TraceSpan span(m_, "bridge", "read_block", index);
  m_.charge(kRequestOverhead);
  const chrys::Oid reply = k_.make_dual_queue();
  Request rq;
  rq.op = Request::kRead;
  rq.file = f;
  rq.index = index;
  rq.rdata = out;
  rq.reply_dq = reply;
  const std::uint32_t rid = put_request(std::move(rq));
  k_.dq_enqueue(servers_[s]->req_dq, rid);
  if (!servers_[s]->alive) fail_abandoned(s);
  std::uint32_t tok;
  if (budget == 0) {
    (void)k_.dq_dequeue(reply);
  } else if (!k_.dq_dequeue_for(reply, budget, &tok)) {
    if (!abandon_request(rid)) {
      release_reply_queue(reply);
      return false;
    }
    (void)k_.dq_try_dequeue_uncharged(reply, &tok);
  }
  const bool failed = reqs_[rid].failed;
  release_request(rid);
  if (failed) {
    k_.delete_object(reply);
    throw chrys::ThrowSignal{chrys::kThrowNodeDead, servers_[s]->node};
  }
  try {
    // The block travels back across the switch.
    m_.access_words(sim::PhysAddr{servers_[s]->node, 0}, kBlockSize / 4 / 8);
  } catch (const sim::NodeDeadError&) {
    // The server died between its reply and our data pull: the block is
    // gone with the node.  Same documented signal as a dead-at-entry
    // stripe.
    k_.delete_object(reply);
    throw chrys::ThrowSignal{chrys::kThrowNodeDead, servers_[s]->node};
  } catch (const sim::NetUnreachableError&) {
    // A partition opened between the reply and our data pull: the block
    // survives on the far side, but this read cannot complete.
    k_.delete_object(reply);
    throw chrys::ThrowSignal{chrys::kThrowNetUnreachable, servers_[s]->node};
  }
  k_.delete_object(reply);
  return true;
}

std::uint32_t BridgeFs::put_failed(Request rq, chrys::Oid reply_dq,
                                   bool unreachable) {
  rq.failed = true;
  rq.unreachable = unreachable;
  rq.replied = true;
  rq.reply_dq = reply_dq;
  const std::uint32_t rid = put_request(std::move(rq));
  k_.dq_enqueue_uncharged(reply_dq, rid);
  return rid;
}

std::uint32_t BridgeFs::submit_read(FileId f, std::uint32_t index, void* out,
                                    chrys::Oid reply_dq) {
  const std::uint32_t s = index % nservers_;
  sim::TraceSpan span(m_, "bridge", "submit_read", index);
  Request rq;
  rq.op = Request::kRead;
  rq.file = f;
  rq.index = index;
  rq.rdata = out;
  rq.reply_dq = reply_dq;
  m_.charge(kRequestOverhead);
  if (!servers_[s]->alive) return put_failed(std::move(rq), reply_dq);
  const std::uint32_t rid = put_request(std::move(rq));
  k_.dq_enqueue(servers_[s]->req_dq, rid);
  if (!servers_[s]->alive) fail_abandoned(s);
  return rid;
}

std::uint32_t BridgeFs::submit_write(FileId f, std::uint32_t index,
                                     const void* data, chrys::Oid reply_dq) {
  const std::uint32_t s = index % nservers_;
  sim::TraceSpan span(m_, "bridge", "submit_write", index);
  Request rq;
  rq.op = Request::kWrite;
  rq.file = f;
  rq.index = index;
  rq.wdata = data;
  rq.reply_dq = reply_dq;
  m_.charge(kRequestOverhead);
  if (!servers_[s]->alive) return put_failed(std::move(rq), reply_dq);
  files_[f].nblocks = std::max(files_[f].nblocks, index + 1);
  try {
    // The block travels to the server's node across the switch.
    m_.access_words(sim::PhysAddr{servers_[s]->node, 0}, kBlockSize / 4 / 8);
  } catch (const sim::NodeDeadError&) {
    // Touching the corpse revealed a silent death before any detector did.
    return put_failed(std::move(rq), reply_dq);
  } catch (const sim::NetUnreachableError&) {
    // No path to the server (partition or dead switch hardware): fail the
    // request but flag it unreachable — the replica is stale, not lost.
    return put_failed(std::move(rq), reply_dq, /*unreachable=*/true);
  }
  const std::uint32_t rid = put_request(std::move(rq));
  k_.dq_enqueue(servers_[s]->req_dq, rid);
  if (!servers_[s]->alive) fail_abandoned(s);
  return rid;
}

bool BridgeFs::abandon_request(std::uint32_t rid) {
  Request& rq = reqs_[rid];
  if (rq.replied) return true;  // too late; the token is already out
  rq.abandoned = true;
  ++abandoned_on_dq_[rq.reply_dq];
  return false;
}

void BridgeFs::release_reply_queue(chrys::Oid dq) {
  if (abandoned_on_dq_.count(dq) > 0) {
    // The last abandoned completion deletes it.  Until then the queue must
    // outlive the client process that created it, or the kernel reclaims
    // it at that process's exit while a server is still replying into it.
    k_.give_to_system(dq);
    dq_deferred_.insert(dq);
    return;
  }
  k_.delete_object(dq);
}

void BridgeFs::complete_abandoned(std::uint32_t rid) {
  const chrys::Oid dq = reqs_[rid].reply_dq;
  release_request(rid);
  auto it = abandoned_on_dq_.find(dq);
  if (it == abandoned_on_dq_.end()) return;
  if (--it->second == 0) {
    abandoned_on_dq_.erase(it);
    if (dq_deferred_.erase(dq) > 0) k_.delete_object(dq);
  }
}

std::size_t BridgeFs::queue_depth(std::uint32_t s) const {
  return k_.dq_depth(servers_[s]->req_dq) +
         (servers_[s]->current_rid != kNoRid ? 1 : 0);
}

std::uint32_t BridgeFs::put_request(Request rq) {
  if (!req_free_.empty()) {
    const std::uint32_t rid = req_free_.back();
    req_free_.pop_back();
    reqs_[rid] = std::move(rq);
    return rid;
  }
  reqs_.push_back(std::move(rq));
  return static_cast<std::uint32_t>(reqs_.size() - 1);
}

void BridgeFs::release_request(std::uint32_t rid) { req_free_.push_back(rid); }

std::uint64_t BridgeFs::ship_to_all(Request::Op op, FileId f, FileId f2,
                                    std::uint8_t needle) {
  sim::TraceSpan span(m_, "bridge", "tool", static_cast<std::uint64_t>(op));
  const chrys::Oid reply = k_.make_dual_queue();
  std::uint32_t shipped = 0;
  for (std::uint32_t s = 0; s < nservers_; ++s) {
    if (!servers_[s]->alive) continue;  // degraded: surviving stripes only
    m_.charge(kRequestOverhead);
    if (!servers_[s]->alive) continue;  // died during the charge
    Request rq;
    rq.op = op;
    rq.file = f;
    rq.file2 = f2;
    rq.needle = needle;
    rq.reply_dq = reply;
    const std::uint32_t rid = put_request(std::move(rq));
    k_.dq_enqueue(servers_[s]->req_dq, rid);
    ++shipped;
    if (!servers_[s]->alive) fail_abandoned(s);
  }
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < shipped; ++i) {
    const std::uint32_t rid = k_.dq_dequeue(reply);
    if (reqs_[rid].failed)
      ++tool_shards_failed_;
    else
      total += reqs_[rid].result;
    release_request(rid);
  }
  k_.delete_object(reply);
  return total;
}

void BridgeFs::tool_copy(FileId src, FileId dst) {
  files_[dst].nblocks = files_[src].nblocks;
  (void)ship_to_all(Request::kToolCopy, src, dst, 0);
}

std::uint64_t BridgeFs::tool_search(FileId f, std::uint8_t needle) {
  return ship_to_all(Request::kToolSearch, f, 0, needle);
}

std::uint32_t BridgeFs::tool_compare(FileId a, FileId b) {
  return static_cast<std::uint32_t>(
      ship_to_all(Request::kToolCompare, a, b, 0));
}

void BridgeFs::tool_sort(FileId src, FileId dst) {
  // Phase 1 (parallel): each server sorts its local blocks into a run.
  (void)ship_to_all(Request::kToolSortLocal, src, 0, 0);
  // Phase 2 (serial tail): the client merges the D runs.
  const std::uint32_t n = files_[src].nblocks;
  constexpr std::uint32_t kRec = kBlockSize / 4;
  std::vector<std::vector<std::uint32_t>> runs(nservers_);
  std::vector<std::uint8_t> buf(kBlockSize);
  for (std::uint32_t b = 0; b < n; ++b) {
    read_block(src, b, buf.data());
    const auto* p = reinterpret_cast<const std::uint32_t*>(buf.data());
    auto& run = runs[b % nservers_];
    run.insert(run.end(), p, p + kRec);
  }
  std::vector<std::size_t> cur(nservers_, 0);
  std::vector<std::uint32_t> out;
  out.reserve(static_cast<std::size_t>(n) * kRec);
  m_.compute(static_cast<std::uint64_t>(n) * kRec / 2);  // merge compares
  while (out.size() < static_cast<std::size_t>(n) * kRec) {
    std::uint32_t best = 0;
    bool found = false;
    std::uint32_t who = 0;
    for (std::uint32_t s = 0; s < nservers_; ++s) {
      if (cur[s] < runs[s].size() &&
          (!found || runs[s][cur[s]] < best)) {
        best = runs[s][cur[s]];
        who = s;
        found = true;
      }
    }
    out.push_back(best);
    ++cur[who];
  }
  files_[dst].nblocks = n;
  for (std::uint32_t b = 0; b < n; ++b)
    write_block(dst, b, out.data() + static_cast<std::size_t>(b) * kRec);
}

void BridgeFs::shutdown() {
  (void)ship_to_all(Request::kStop, 0, 0, 0);
}

std::uint64_t BridgeFs::disk_ops() const {
  std::uint64_t t = 0;
  for (const auto& sv : servers_) t += sv->disk.ops();
  return t;
}

}  // namespace bfly::bridge
