// SMP: Structured Message Passing (Section 3.2; LeBlanc, Gafter & Ohkami,
// BPR 8).
//
// SMP supports the dynamic construction of process families: hierarchical
// collections of heavyweight processes communicating through asynchronous
// messages, connected according to an arbitrary static topology.  Processes
// are allocated to processors by a fixed algorithm (base_node + index mod
// nodes) — the paper notes this "can lead to an imbalance in processor
// load".  Message buffers must be mapped into the sender's scarce segmented
// address space; the optional SAR cache delays unmaps to amortize that
// millisecond-class cost.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "chrysalis/kernel.hpp"
#include "smp/sar_cache.hpp"
#include "smp/topology.hpp"

namespace bfly::smp {

class Family;

struct Message {
  std::uint32_t from = 0;
  std::uint32_t tag = 0;
  std::vector<std::uint8_t> payload;

  template <typename T>
  T as() const {
    T v{};
    std::memcpy(&v, payload.data(), std::min(sizeof(T), payload.size()));
    return v;
  }
};

struct FamilyOptions {
  /// Member i runs on node (base_node + i) mod nodes.
  sim::NodeId base_node = 0;
  /// Channel buffers each member may keep mapped (0 = no SAR cache: every
  /// message pays map + unmap).  The default is the realistic segment
  /// budget: 256 SARs minus code/stack/heap segments.  A family member
  /// with more live channels than this thrashes the cache — the paper's
  /// "must map its buffers in and out dynamically".
  std::uint32_t sar_cache_capacity = 200;
};

/// A member's view of its family; passed to the member body and valid for
/// the body's lifetime.  All methods must be called from the member's own
/// process.
class Member {
 public:
  std::uint32_t index() const { return index_; }
  std::uint32_t size() const;
  sim::NodeId node() const { return node_; }
  Family& family() { return fam_; }

  /// Asynchronous send to a topology neighbor.  Throws
  /// ThrowSignal{kThrowNotConnected} otherwise.
  void send(std::uint32_t dest, std::uint32_t tag, const void* data,
            std::size_t len);
  template <typename T>
  void send_value(std::uint32_t dest, std::uint32_t tag, const T& v) {
    send(dest, tag, &v, sizeof(T));
  }

  /// Blocking receive (any neighbor, FIFO arrival order).
  Message receive();
  /// The same, into `out`: a payload already of the message's length is
  /// overwritten in place, so a loop that keeps one Message allocates
  /// nothing per message.
  void receive(Message* out);
  bool try_receive(Message* out);

  const std::vector<std::uint32_t>& neighbors() const;
  /// Heap-order helpers for tree-shaped families.
  std::uint32_t parent(std::uint32_t arity = 2) const {
    return Topology::tree_parent(index_, arity);
  }
  std::vector<std::uint32_t> children(std::uint32_t arity = 2) const;

  SarCache& sar_cache() { return cache_; }

 private:
  friend class Family;
  Member(Family& f, std::uint32_t index, sim::NodeId node,
         std::uint32_t cache_capacity);
  /// Charge the receive and copy record `id`'s body into `out`.
  void deliver(std::uint32_t id, Message* out);

  Family& fam_;
  std::uint32_t index_;
  sim::NodeId node_;
  chrys::Oid mailbox_ = chrys::kNoObject;
  SarCache cache_;
};

using MemberBody = std::function<void(Member&)>;

class Family {
 public:
  /// Create the family; must be called from a Chrysalis process (the
  /// creator pays the per-process creation costs serially).
  Family(chrys::Kernel& k, Topology topo, MemberBody body,
         FamilyOptions opt = {});
  ~Family();

  Family(const Family&) = delete;
  Family& operator=(const Family&) = delete;

  std::uint32_t size() const { return topo_.size(); }
  const Topology& topology() const { return topo_; }
  chrys::Kernel& kernel() { return k_; }

  /// Block the creator until every member body has returned.
  void join();

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  friend class Member;
  struct MsgRec {
    std::uint32_t from = 0;
    std::uint32_t tag = 0;
    sim::PhysAddr buf{};
    std::uint32_t len = 0;
    bool in_use = false;
  };

  std::uint32_t put_record(MsgRec rec);
  MsgRec take_record(std::uint32_t id);

  chrys::Kernel& k_;
  sim::Machine& m_;
  Topology topo_;
  FamilyOptions opt_;
  std::vector<std::unique_ptr<Member>> members_;
  std::deque<MsgRec> records_;
  std::vector<std::uint32_t> record_free_;
  chrys::Oid done_queue_ = chrys::kNoObject;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace bfly::smp
