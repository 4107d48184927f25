// The Butterfly switching network.
//
// A 4-ary multistage (banyan) network: N nodes need ceil(log4 N) stages of
// 4x4 switches.  Routing is destination-digit addressed: at stage s the
// packet exits on the port given by base-4 digit s of the destination.
//
// The paper reports (citing Rettberg & Thomas, CACM 1986) that switch
// contention is "almost negligible" on the real machine, so by default we
// model only per-hop latency.  Optional port-occupancy modelling is provided
// for the ablation bench that verifies the claim inside our own model.
//
// Fault domains: large Butterfly configurations shipped an extra switch
// column precisely to provide redundant paths around failed switch cards.
// We model that here: a FaultPlan can kill a 4x4 switch card or a single
// backplane link; routes whose default path crosses dead silicon detour via
// the redundant column — the packet enters the banyan on a different input
// row (a re-randomized path digit) for one extra hop of latency.  The card
// at stage s is identified by every digit of the wire position EXCEPT digit
// s (the digit that stage switches), so early-stage cards depend on source
// digits (avoidable by detour) while the final column is fully
// destination-determined — it is wired straight into the memory modules and
// a dead final card severs its four nodes, exactly the unavoidable fault
// domain the real machine had.  When no healthy path exists the reference
// raises NetUnreachableError with the PNC's futile retry budget charged.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/config.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace bfly::sim {

class SwitchFabric {
 public:
  explicit SwitchFabric(const MachineConfig& cfg);

  /// Arm packet-level fault injection (drop/delay) from a plan.  `rng` must
  /// outlive the fabric; Machine passes its dedicated fault RNG so the main
  /// machine RNG stream is untouched.  No-op when the plan injects nothing.
  void configure_faults(const FaultPlan& plan, Rng* rng);

  /// Machine-wide counters for alt-routes / exhausted retry budgets; the
  /// fabric reports into them when set (Machine wires this at construction).
  void set_stats(MachineStats* s) { stats_ = s; }

  /// Number of switch stages a packet traverses.
  std::uint32_t stages() const { return stages_; }

  /// Wire positions per stage (4^stages — the virtual position space; for
  /// non-power-of-4 machines the physical wires fold onto it modulo nodes).
  std::uint32_t wires() const { return reach_; }
  /// 4x4 switch cards per stage.
  std::uint32_t cards() const { return reach_ / 4; }

  /// Pure pipeline latency of one traversal (no contention).
  Time traversal_ns() const { return stages_ * hop_ns_; }

  /// Kill card `card` of stage `stage` / output wire `link` of `stage`.
  /// Permanent for the run.  Machine schedules these from the FaultPlan.
  void fail_card(std::uint32_t stage, std::uint32_t card);
  void fail_link(std::uint32_t stage, std::uint32_t link);

  /// True when some path (default or detour) from src to dst is healthy.
  /// Always true while no card/link has failed yet.
  bool has_path(NodeId src, NodeId dst) const;

  /// Charge one packet of `words` 32-bit words through the network at time
  /// `depart`, from `src` to `dst`.  Returns the time the head of the packet
  /// arrives at the destination module.  With contention modelling enabled,
  /// the packet queues at each stage's output port.  Raises
  /// NetUnreachableError when every path crosses dead silicon or the PNC's
  /// drop-retry budget runs out (`wasted()` carries the burned retry time).
  Time route(NodeId src, NodeId dst, Time depart, std::uint32_t words);

  /// Total time packets spent queueing in the switch (0 unless contention
  /// modelling is on).
  Time contention_ns() const { return contention_ns_; }

  // --- Switch combining (Ultracomputer-style fetch-and-add) ---------------
  // When MachineConfig::switch_combining is set (together with contention
  // modelling), concurrent fetch-and-adds to one hot word that meet at a
  // switch stage merge into a single upstream transaction: the first add in
  // flight is the *leader* and pays the full contended traversal + module
  // service; any add to the same cell issued while the leader's wait-buffer
  // entry is live (until its reply fans back down) is a *follower* that
  // never reaches the module at all — it completes at its own uncontended
  // round trip plus one de-combining hop, no earlier than the previous
  // combiner.  Machine::fetch_add_u32 drives these two hooks; everything is
  // inert unless combining is armed.

  bool combining() const { return combining_; }
  /// Try to merge an add to `cell` issued at `issue`.  On success bumps the
  /// combined counter and returns the follower's completion time in
  /// `*finish`.  `cell` is the chan_of key of the hot word.
  bool combine_add(std::uint64_t cell, Time issue, Time* finish);
  /// Open a combining window for `cell`: a leader's request is in flight
  /// and its reply lands at `finish` (followers may merge until then).
  void record_add(std::uint64_t cell, Time finish);
  /// Fetch-adds that merged at a switch instead of reaching the module.
  std::uint64_t combined_adds() const { return combined_adds_; }

  /// Virtual wire position a packet entering on row `src` and bound for
  /// `dst` occupies after stage `stage` (unfolded space): the high
  /// stage + 1 base-4 digits of `dst` above the remaining low digits of
  /// `src`.  O(1), so route() costs O(stages).
  std::uint32_t wire_at(std::uint32_t stage, std::uint32_t src,
                        NodeId dst) const;

  /// Packets dropped (and retried) / delayed by fault injection.
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  std::uint64_t packets_delayed() const { return packets_delayed_; }

 private:
  std::uint32_t port_index(std::uint32_t stage, NodeId src, NodeId dst) const;
  /// Card owning `wire` at `stage`: the wire position with digit `stage`
  /// removed.
  std::uint32_t card_at(std::uint32_t stage, std::uint32_t wire) const;
  /// True when the path entering the banyan at row `vsrc` crosses a dead
  /// card or link on the way to `dst`.
  bool path_blocked(std::uint32_t vsrc, NodeId dst) const;
  /// First healthy entry row for src->dst (the default row `src`, or a
  /// deterministic detour scan), or kNoPath.
  std::uint32_t pick_entry(NodeId src, NodeId dst) const;
  [[noreturn]] void throw_unreachable(NodeId src, NodeId dst,
                                      const char* why);

  static constexpr std::uint32_t kNoPath = 0xffffffffu;

  std::uint32_t nodes_;
  std::uint32_t stages_;
  std::uint32_t reach_;  // 4^stages_: virtual wire positions per stage
  Time hop_ns_;
  bool model_contention_;
  Time port_service_ns_;
  // busy-until per (stage, output port); port space is stages x nodes since
  // a 4-ary banyan has N output ports per stage (N/4 switches x 4 ports).
  std::vector<Time> port_busy_;
  Time contention_ns_ = 0;

  // Packet fault injection (inactive unless configure_faults armed it).
  Rng* fault_rng_ = nullptr;
  double drop_prob_ = 0.0;
  double delay_prob_ = 0.0;
  Time drop_retry_ns_ = 100 * kMicrosecond;
  Time delay_ns_ = 0;
  std::uint32_t max_drop_retries_ = 16;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t packets_delayed_ = 0;

  // Persistent path health (empty until the first card/link failure fires;
  // routing skips every health check while path_faults_ is false, so plans
  // without them stay byte-identical).
  bool path_faults_ = false;
  std::vector<std::uint8_t> card_dead_;  // stages x cards()
  std::vector<std::uint8_t> link_dead_;  // stages x wires()
  MachineStats* stats_ = nullptr;

  // Combining windows, keyed by hot word (chan_of).  `until` is when the
  // leader's reply passes back through the combining stage (window closes);
  // `finish` chains follower completions so de-combined replies stay in
  // issue order.  Stale windows are pruned lazily on miss.
  struct AddWindow {
    Time until = 0;
    Time finish = 0;
  };
  bool combining_ = false;
  std::unordered_map<std::uint64_t, AddWindow> add_windows_;
  std::uint64_t combined_adds_ = 0;
};

}  // namespace bfly::sim
