#include "smp/family.hpp"

#include <cassert>

namespace bfly::smp {

namespace {
// Fixed marshalling overhead per message beyond data movement.
constexpr sim::Time kSendOverhead = 80 * sim::kMicrosecond;
constexpr sim::Time kReceiveOverhead = 60 * sim::kMicrosecond;
}  // namespace

// --- Member -----------------------------------------------------------------

Member::Member(Family& f, std::uint32_t index, sim::NodeId node,
               std::uint32_t cache_capacity)
    : fam_(f), index_(index), node_(node),
      cache_(f.kernel().machine(), cache_capacity) {}

std::uint32_t Member::size() const { return fam_.size(); }

const std::vector<std::uint32_t>& Member::neighbors() const {
  return fam_.topo_.neighbors(index_);
}

std::vector<std::uint32_t> Member::children(std::uint32_t arity) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t c = arity * index_ + 1;
       c <= arity * index_ + arity && c < fam_.size(); ++c)
    out.push_back(c);
  return out;
}

void Member::send(std::uint32_t dest, std::uint32_t tag, const void* data,
                  std::size_t len) {
  if (!fam_.topo_.connected(index_, dest))
    throw chrys::ThrowSignal{chrys::kThrowNotConnected, dest};
  chrys::Kernel& k = fam_.k_;
  sim::Machine& m = fam_.m_;
  sim::TraceSpan span(m, "smp", "send", dest);

  // Map the channel buffer (SAR cache decides the real cost).
  cache_.access((static_cast<std::uint64_t>(index_) << 32) | dest);
  m.charge(kSendOverhead);

  // The message body lands in a buffer on the receiver's node.
  Member& rcv = *fam_.members_[dest];
  Family::MsgRec rec;
  rec.from = index_;
  rec.tag = tag;
  rec.len = static_cast<std::uint32_t>(len);
  if (len > 0) {
    rec.buf = m.alloc(rcv.node_, len);
    if (m.probed())
      m.label_memory(rec.buf, len,
                     "SMP.msg[" + std::to_string(index_) + "->" +
                         std::to_string(dest) + "]");
    m.block_write(rec.buf, data, len);
  }
  const std::uint32_t id = fam_.put_record(rec);
  k.dq_enqueue(rcv.mailbox_, id);
  ++fam_.messages_sent_;
  fam_.bytes_sent_ += len;
}

Message Member::receive() {
  Message msg;
  receive(&msg);
  return msg;
}

void Member::receive(Message* out) {
  sim::TraceSpan span(fam_.m_, "smp", "recv", index_);
  deliver(fam_.k_.dq_dequeue(mailbox_), out);
}

bool Member::try_receive(Message* out) {
  std::uint32_t id = 0;
  if (!fam_.k_.dq_try_dequeue(mailbox_, &id)) return false;
  deliver(id, out);
  return true;
}

void Member::deliver(std::uint32_t id, Message* out) {
  sim::Machine& m = fam_.m_;
  const Family::MsgRec rec = fam_.take_record(id);
  m.charge(kReceiveOverhead);
  out->from = rec.from;
  out->tag = rec.tag;
  out->payload.resize(rec.len);
  if (rec.len > 0) {
    // Receiver maps the buffer too, then pulls it to local memory.
    cache_.access((static_cast<std::uint64_t>(rec.from) << 32) | index_);
    m.block_read(out->payload.data(), rec.buf, rec.len);
    m.free(rec.buf, rec.len);
  }
}

// --- Family ------------------------------------------------------------------

Family::Family(chrys::Kernel& k, Topology topo, MemberBody body,
               FamilyOptions opt)
    : k_(k), m_(k.machine()), topo_(topo), opt_(opt) {
  const std::uint32_t n = topo_.size();
  done_queue_ = k_.make_dual_queue();
  members_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const sim::NodeId node = (opt_.base_node + i) % m_.nodes();
    members_.emplace_back(
        new Member(*this, i, node, opt_.sar_cache_capacity));
  }
  // Mailboxes exist before any member runs (members may send immediately).
  for (auto& mem : members_) mem->mailbox_ = k_.make_dual_queue();
  for (std::uint32_t i = 0; i < n; ++i) {
    Member* mem = members_[i].get();
    k_.create_process(
        mem->node_,
        [this, mem, body] {
          body(*mem);
          mem->cache_.flush();
          k_.dq_enqueue(done_queue_, mem->index());
        },
        "smp-" + std::to_string(i));
  }
}

Family::~Family() = default;

void Family::join() {
  for (std::uint32_t i = 0; i < size(); ++i) (void)k_.dq_dequeue(done_queue_);
}

std::uint32_t Family::put_record(MsgRec rec) {
  rec.in_use = true;
  if (!record_free_.empty()) {
    const std::uint32_t id = record_free_.back();
    record_free_.pop_back();
    records_[id] = rec;
    return id;
  }
  records_.push_back(rec);
  return static_cast<std::uint32_t>(records_.size() - 1);
}

Family::MsgRec Family::take_record(std::uint32_t id) {
  MsgRec rec = records_[id];
  assert(rec.in_use);
  records_[id].in_use = false;
  records_[id].len = 0;
  record_free_.push_back(id);
  return rec;
}

}  // namespace bfly::smp
