#include "sim/switch_fabric.hpp"

#include <algorithm>

namespace bfly::sim {

namespace {
std::uint32_t ceil_log4(std::uint32_t n) {
  std::uint32_t stages = 0;
  std::uint32_t reach = 1;
  while (reach < n) {
    reach *= 4;
    ++stages;
  }
  return std::max<std::uint32_t>(stages, 1);
}
}  // namespace

SwitchFabric::SwitchFabric(const MachineConfig& cfg)
    : nodes_(cfg.nodes),
      stages_(ceil_log4(cfg.nodes)),
      reach_(1u << (2 * ceil_log4(cfg.nodes))),
      hop_ns_(cfg.switch_hop_ns),
      model_contention_(cfg.model_switch_contention),
      port_service_ns_(cfg.switch_port_service_ns),
      combining_(cfg.model_switch_contention && cfg.switch_combining) {
  if (model_contention_) {
    port_busy_.assign(static_cast<std::size_t>(stages_) * nodes_, 0);
  }
}

bool SwitchFabric::combine_add(std::uint64_t cell, Time issue, Time* finish) {
  if (!combining_) return false;
  auto it = add_windows_.find(cell);
  if (it == add_windows_.end()) return false;
  AddWindow& w = it->second;
  // The add meets the leader's wait-buffer entry one hop in; past the
  // window the entry is gone and this add must lead a fresh transaction.
  if (issue + hop_ns_ >= w.until) {
    add_windows_.erase(it);
    return false;
  }
  // Combined: the merged operand rides the leader's transaction, and the
  // reply de-combines on the way back down — an uncontended round trip plus
  // one extra hop, no earlier than the previous combiner's reply.
  const Time own = issue + 2 * traversal_ns() + hop_ns_;
  w.finish = std::max(w.finish, own);
  *finish = w.finish;
  ++combined_adds_;
  if (stats_) ++stats_->combined_adds;
  return true;
}

void SwitchFabric::record_add(std::uint64_t cell, Time finish) {
  if (!combining_) return;
  add_windows_[cell] = AddWindow{finish, finish};
}

std::uint32_t SwitchFabric::port_index(std::uint32_t stage, NodeId src,
                                       NodeId dst) const {
  // Destination-tag routing in a 4-ary butterfly: after stage s the packet
  // sits on the wire whose high s+1 base-4 digits come from the destination
  // and whose remaining low digits still come from the source.  Two packets
  // contend at stage s only if they land on the same wire.
  return stage * nodes_ + (wire_at(stage, src, dst) % nodes_);
}

std::uint32_t SwitchFabric::wire_at(std::uint32_t stage, std::uint32_t src,
                                    NodeId dst) const {
  // Digits 0..stage (most significant first) come from dst, the rest from
  // src: `low` covers the 2 * (stages_ - 1 - stage) bits still taken from
  // the source.
  const std::uint32_t low = (1u << (2 * (stages_ - 1 - stage))) - 1u;
  return ((dst & ~low) | (src & low)) & (reach_ - 1u);
}

std::uint32_t SwitchFabric::card_at(std::uint32_t stage,
                                    std::uint32_t wire) const {
  // The 4x4 card at stage s connects the four wires differing only in base-4
  // digit s, so the card's identity is the wire position with digit s
  // removed.  Early-stage cards thus depend on *source* digits (a detour can
  // avoid them); the final stage's card is all destination digits — that
  // column is wired straight into the memory modules and unavoidable.
  const std::uint32_t shift = 2 * (stages_ - 1 - stage);
  const std::uint32_t high = wire >> (shift + 2);
  const std::uint32_t low = wire & ((1u << shift) - 1u);
  return (high << shift) | low;
}

void SwitchFabric::configure_faults(const FaultPlan& plan, Rng* rng) {
  drop_retry_ns_ = plan.drop_retry_ns;
  max_drop_retries_ = std::max(1u, plan.max_drop_retries);
  if (plan.packet_drop_prob <= 0.0 && plan.packet_delay_prob <= 0.0) return;
  fault_rng_ = rng;
  drop_prob_ = plan.packet_drop_prob;
  delay_prob_ = plan.packet_delay_prob;
  delay_ns_ = plan.packet_delay_ns;
}

void SwitchFabric::fail_card(std::uint32_t stage, std::uint32_t card) {
  if (!path_faults_) {
    card_dead_.assign(static_cast<std::size_t>(stages_) * cards(), 0);
    link_dead_.assign(static_cast<std::size_t>(stages_) * reach_, 0);
    path_faults_ = true;
  }
  card_dead_[static_cast<std::size_t>(stage) * cards() + card] = 1;
}

void SwitchFabric::fail_link(std::uint32_t stage, std::uint32_t link) {
  if (!path_faults_) {
    card_dead_.assign(static_cast<std::size_t>(stages_) * cards(), 0);
    link_dead_.assign(static_cast<std::size_t>(stages_) * reach_, 0);
    path_faults_ = true;
  }
  link_dead_[static_cast<std::size_t>(stage) * reach_ + link] = 1;
}

bool SwitchFabric::path_blocked(std::uint32_t vsrc, NodeId dst) const {
  for (std::uint32_t s = 0; s < stages_; ++s) {
    const std::uint32_t wire = wire_at(s, vsrc, dst);
    if (card_dead_[static_cast<std::size_t>(s) * cards() + card_at(s, wire)])
      return true;
    if (link_dead_[static_cast<std::size_t>(s) * reach_ + wire]) return true;
  }
  return false;
}

std::uint32_t SwitchFabric::pick_entry(NodeId src, NodeId dst) const {
  if (!path_blocked(src, dst)) return src;
  // The redundant extra column lets a packet enter the banyan on any input
  // row: scan deterministically for a row whose path to dst is healthy.
  // Only the source digits the banyan actually consults differ between
  // rows, so the scan converges within a handful of probes for any single
  // dead card off the final column.
  for (std::uint32_t d = 1; d < reach_; ++d) {
    const std::uint32_t vsrc = (src + d) % reach_;
    if (!path_blocked(vsrc, dst)) return vsrc;
  }
  return kNoPath;
}

bool SwitchFabric::has_path(NodeId src, NodeId dst) const {
  if (src == dst || !path_faults_) return true;
  return pick_entry(src, dst) != kNoPath;
}

void SwitchFabric::throw_unreachable(NodeId src, NodeId dst,
                                     const char* why) {
  // The PNC burns its full retry budget discovering the black hole; the
  // caller (Machine) charges this to the requester before surfacing the
  // error, so giving up is never cheaper than succeeding.
  throw NetUnreachableError(
      src, dst, why,
      static_cast<Time>(max_drop_retries_) * drop_retry_ns_);
}

Time SwitchFabric::route(NodeId src, NodeId dst, Time depart,
                         std::uint32_t words) {
  if (src == dst) return depart;
  if (fault_rng_ != nullptr) {
    // A dropped packet is retried by the PNC after a timeout; retries can
    // themselves be dropped, so the latency penalty compounds — but the
    // budget is bounded: past max_drop_retries the PNC declares the path
    // unreachable instead of spinning forever as drop_prob -> 1.
    std::uint32_t drops = 0;
    while (drop_prob_ > 0.0 && fault_rng_->uniform() < drop_prob_) {
      ++packets_dropped_;
      depart += drop_retry_ns_;
      if (++drops >= max_drop_retries_) {
        if (stats_ != nullptr) ++stats_->drops_exhausted;
        throw_unreachable(src, dst, "PNC drop-retry budget exhausted");
      }
    }
    if (delay_prob_ > 0.0 && fault_rng_->uniform() < delay_prob_) {
      ++packets_delayed_;
      depart += delay_ns_;
    }
  }
  std::uint32_t entry = src;
  Time detour_ns = 0;
  if (path_faults_) {
    entry = pick_entry(src, dst);
    if (entry == kNoPath)
      throw_unreachable(src, dst, "all paths cross dead switch hardware");
    if (entry != src) {
      // One extra hop through the redundant column to reach the detour row.
      detour_ns = hop_ns_;
      if (stats_ != nullptr) ++stats_->alt_routed;
    }
  }
  if (!model_contention_) return depart + detour_ns + traversal_ns();

  Time t = depart + detour_ns;
  const Time occupancy = port_service_ns_ * std::max<std::uint32_t>(words, 1);
  for (std::uint32_t s = 0; s < stages_; ++s) {
    Time& busy = port_busy_[port_index(s, entry, dst)];
    const Time start = std::max(t, busy);
    contention_ns_ += start - t;
    busy = start + occupancy;
    t = start + hop_ns_;
  }
  return t;
}

}  // namespace bfly::sim
