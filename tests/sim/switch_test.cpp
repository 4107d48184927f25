#include "sim/switch_fabric.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/machine.hpp"

namespace bfly::sim {
namespace {

TEST(Switch, StageCountIsCeilLog4) {
  EXPECT_EQ(SwitchFabric(butterfly1(4)).stages(), 1u);
  EXPECT_EQ(SwitchFabric(butterfly1(16)).stages(), 2u);
  EXPECT_EQ(SwitchFabric(butterfly1(64)).stages(), 3u);
  EXPECT_EQ(SwitchFabric(butterfly1(128)).stages(), 4u);  // 128 needs 4 stages
  EXPECT_EQ(SwitchFabric(butterfly1(256)).stages(), 4u);
}

// The per-stage digit loop wire_at used to run: digit i (most significant
// first) comes from dst for i <= stage and from src after it.
std::uint32_t wire_by_digits(std::uint32_t stages, std::uint32_t stage,
                             std::uint32_t src, std::uint32_t dst) {
  std::uint32_t pos = 0;
  for (std::uint32_t i = 0; i < stages; ++i) {
    const std::uint32_t shift = 2 * (stages - 1 - i);
    const std::uint32_t digit = ((i <= stage ? dst : src) >> shift) & 3u;
    pos |= digit << shift;
  }
  return pos;
}

TEST(Switch, ClosedFormWireMatchesDigitLoop) {
  for (std::uint32_t nodes : {16u, 128u, 1024u, 4096u}) {
    SwitchFabric f(butterfly1(nodes));
    std::uint64_t mismatches = 0;
    // Every entry row the detour scan can pick, every destination.
    for (std::uint32_t stage = 0; stage < f.stages(); ++stage)
      for (std::uint32_t src = 0; src < f.wires(); ++src)
        for (std::uint32_t dst = 0; dst < nodes; ++dst)
          mismatches += f.wire_at(stage, src, dst) !=
                        wire_by_digits(f.stages(), stage, src, dst);
    EXPECT_EQ(mismatches, 0u) << nodes << " nodes";
  }
}

TEST(Switch, LocalRouteIsFree) {
  SwitchFabric f(butterfly1(64));
  EXPECT_EQ(f.route(3, 3, 1000, 1), 1000u);
}

TEST(Switch, UncontendedRouteIsPipelineLatency) {
  SwitchFabric f(butterfly1(64));
  EXPECT_EQ(f.route(0, 63, 1000, 1), 1000u + 3 * 400u);
}

TEST(Switch, ContentionModelQueuesAtSharedPorts) {
  MachineConfig cfg = butterfly1(64);
  cfg.model_switch_contention = true;
  SwitchFabric f(cfg);
  // Two packets to the same destination at the same instant: the second
  // queues behind the first at every stage.
  const Time a = f.route(0, 63, 0, 1);
  const Time b = f.route(1, 63, 0, 1);
  EXPECT_GT(b, a);
  EXPECT_GT(f.contention_ns(), 0u);
}

TEST(Switch, ContentionNegligibleForScatteredTraffic) {
  // Reproduces (in-model) the Rettberg & Thomas observation the paper cites:
  // with destinations scattered, switch queueing is a tiny fraction of
  // traversal time.
  MachineConfig cfg = butterfly1(64);
  cfg.model_switch_contention = true;
  SwitchFabric f(cfg);
  Time total_latency = 0;
  int sent = 0;
  for (int round = 0; round < 50; ++round) {
    for (NodeId src = 0; src < 64; ++src) {
      const NodeId dst = (src * 37 + round * 11 + 1) % 64;
      if (dst == src) continue;
      const Time t0 = round * 10000;
      total_latency += f.route(src, dst, t0, 1) - t0;
      ++sent;
    }
  }
  ASSERT_GT(sent, 0);
  EXPECT_LT(static_cast<double>(f.contention_ns()),
            0.10 * static_cast<double>(total_latency))
      << "scattered traffic should see <10% switch queueing";
}

// --- Fault domains: dead cards, dead links, alternate-path routing --------
//
// Geometry cheat-sheet for butterfly1(16): stages()==2, 4 cards per stage,
// hop 400ns.  Stage-0 wire for src->dst is (dst & 0xC) | (src & 3), and the
// card owning it is `src & 3` (the source digit the detour can re-pick).
// Stage-1 wire is dst itself and its card is `dst >> 2` — the final column
// is destination-determined and wired straight into the memory modules.

TEST(Switch, HealthyFabricHasAPathEverywhere) {
  SwitchFabric f(butterfly1(16));
  for (NodeId s = 0; s < 16; ++s)
    for (NodeId d = 0; d < 16; ++d) EXPECT_TRUE(f.has_path(s, d));
}

TEST(Switch, DeadEarlyStageCardDetoursForOneExtraHop) {
  SwitchFabric f(butterfly1(16));
  MachineStats st;
  f.set_stats(&st);
  f.fail_card(0, 1);  // stage-0 card 1: default path of every src with src%4==1
  // An unaffected source pays plain pipeline latency, no detour counted.
  EXPECT_EQ(f.route(0, 10, 1000, 1), 1000u + 2 * 400u);
  EXPECT_EQ(st.alt_routed, 0u);
  // An affected source still gets through — via the redundant column, for
  // exactly one extra hop — and the machine counter sees the detour.
  EXPECT_TRUE(f.has_path(1, 10));
  EXPECT_EQ(f.route(1, 10, 1000, 1), 1000u + 3 * 400u);
  EXPECT_EQ(st.alt_routed, 1u);
}

TEST(Switch, DeadFinalColumnCardSeversItsFourNodes) {
  SwitchFabric f(butterfly1(16));
  f.fail_card(1, 2);  // final column: card 2 owns destinations 8..11
  for (NodeId d = 8; d < 12; ++d) EXPECT_FALSE(f.has_path(0, d));
  EXPECT_TRUE(f.has_path(0, 7));
  EXPECT_TRUE(f.has_path(0, 12));
  // The cut is directional: the severed nodes can still send outward (their
  // own stage-0 cards and the survivors' final cards are healthy).
  EXPECT_TRUE(f.has_path(9, 0));
  EXPECT_EQ(f.route(9, 0, 500, 1), 500u + 2 * 400u);
  try {
    f.route(0, 9, 500, 1);
    FAIL() << "route into the dead final card must throw";
  } catch (const NetUnreachableError& e) {
    EXPECT_EQ(e.src(), 0u);
    EXPECT_EQ(e.node(), 9u);
    // The PNC burned its full default retry budget discovering the hole.
    EXPECT_EQ(e.wasted(), 16 * (100 * kMicrosecond));
  }
}

TEST(Switch, DeadLinkDetoursOnlyTheRoutesCrossingIt) {
  SwitchFabric f(butterfly1(16));
  MachineStats st;
  f.set_stats(&st);
  f.fail_link(0, 6);  // stage-0 wire 6 = srcs with src%4==2 heading to 4..7
  EXPECT_EQ(f.route(2, 5, 0, 1), 3 * 400u);  // crosses wire 6: +1 hop
  EXPECT_EQ(st.alt_routed, 1u);
  EXPECT_EQ(f.route(2, 9, 0, 1), 2 * 400u);  // different dst digit: untouched
  EXPECT_EQ(st.alt_routed, 1u);
}

TEST(Switch, DeadFinalStageLinkSeversExactlyOneNode) {
  SwitchFabric f(butterfly1(16));
  f.fail_link(1, 5);  // every path to node 5 ends on stage-1 wire 5
  for (NodeId s = 0; s < 16; ++s) {
    if (s == 5) continue;
    EXPECT_FALSE(f.has_path(s, 5)) << "src " << s;
  }
  EXPECT_TRUE(f.has_path(5, 0));  // outbound unaffected
  EXPECT_TRUE(f.has_path(0, 6));  // neighbours unaffected
  EXPECT_THROW(f.route(3, 5, 0, 1), NetUnreachableError);
}

TEST(Switch, DropRetryBudgetCapsTheRetryLoop) {
  // With drop probability 1.0 the legacy unbounded retry loop would never
  // terminate; the PNC budget turns it into a bounded, charged failure.
  SwitchFabric f(butterfly1(16));
  MachineStats st;
  f.set_stats(&st);
  FaultPlan plan;
  plan.packet_drop_prob = 1.0;
  plan.max_drop_retries = 4;
  Rng rng(1);
  f.configure_faults(plan, &rng);
  try {
    f.route(0, 9, 0, 1);
    FAIL() << "an always-dropping fabric must give up, not spin";
  } catch (const NetUnreachableError& e) {
    EXPECT_EQ(e.wasted(), 4 * (100 * kMicrosecond));
  }
  EXPECT_EQ(f.packets_dropped(), 4u);
  EXPECT_EQ(st.drops_exhausted, 1u);
}

}  // namespace
}  // namespace bfly::sim
