// Cross-module integration and machine-wide property tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/gauss.hpp"
#include "apps/sort.hpp"
#include "bridge/bridge.hpp"
#include "chrysalis/kernel.hpp"
#include "crowd/crowd.hpp"
#include "replay/instant_replay.hpp"
#include "sim/machine.hpp"
#include "us/uniform_system.hpp"

namespace bfly {
namespace {

using sim::butterfly1;
using sim::Machine;
using sim::Time;

// --- Determinism: the property Instant Replay's correctness rests on ------

TEST(Determinism, IdenticalRunsProduceIdenticalTimelines) {
  auto run_once = [] {
    Machine m(butterfly1(32));
    chrys::Kernel k(m);
    us::UniformSystem us(k);
    std::vector<std::uint32_t> order;
    us.run_main([&] {
      sim::PhysAddr acc = us.alloc_global(4);
      us.put<std::uint32_t>(acc, 0);
      us.for_all(0, 100, [&](us::TaskCtx& c) {
        c.m.charge((1 + c.arg % 7) * sim::kMillisecond);
        c.us.atomic_add(acc, c.arg);
        order.push_back(c.arg);
      });
    });
    return std::pair{m.now(), order};
  };
  const auto [t1, o1] = run_once();
  const auto [t2, o2] = run_once();
  EXPECT_EQ(t1, t2) << "simulated end time must be bit-identical";
  EXPECT_EQ(o1, o2) << "task interleaving must be bit-identical";
}

TEST(Determinism, GaussSolutionIdenticalAcrossRuns) {
  apps::GaussConfig cfg;
  cfg.n = 24;
  cfg.processors = 8;
  Machine m1(butterfly1(16)), m2(butterfly1(16));
  const auto r1 = apps::gauss_us(m1, cfg);
  const auto r2 = apps::gauss_us(m2, cfg);
  EXPECT_EQ(r1.elapsed, r2.elapsed);
  EXPECT_EQ(r1.solution, r2.solution);
  EXPECT_EQ(r1.remote_refs, r2.remote_refs);
}

TEST(Determinism, GaussSmpSolutionIdenticalAcrossRuns) {
  apps::GaussConfig cfg;
  cfg.n = 24;
  cfg.processors = 8;
  cfg.memory_nodes = 8;
  Machine m1(butterfly1(16)), m2(butterfly1(16));
  const auto r1 = apps::gauss_smp(m1, cfg);
  const auto r2 = apps::gauss_smp(m2, cfg);
  EXPECT_LT(apps::gauss_error(r1, cfg.n, cfg.seed), 1e-6);
  EXPECT_EQ(r1.elapsed, r2.elapsed);
  EXPECT_EQ(r1.solution, r2.solution);
}

TEST(Determinism, BitonicSortIdenticalAcrossRuns) {
  apps::SortConfig cfg;
  cfg.n = 256;
  cfg.processors = 4;
  Machine m1(butterfly1(16)), m2(butterfly1(16));
  const auto r1 = apps::bitonic_sort(m1, cfg);
  const auto r2 = apps::bitonic_sort(m2, cfg);
  EXPECT_FALSE(r1.deadlocked);
  EXPECT_TRUE(std::is_sorted(r1.keys.begin(), r1.keys.end()));
  EXPECT_EQ(r1.elapsed, r2.elapsed);
  EXPECT_EQ(r1.keys, r2.keys);
}

// --- Machine-size property sweep ----------------------------------------------

class MachineSizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MachineSizes, LatencyInvariantsHoldAtEverySize) {
  const std::uint32_t nodes = GetParam();
  Machine m(butterfly1(nodes));
  sim::PhysAddr local = m.alloc(0, 16);
  sim::PhysAddr remote = m.alloc(nodes - 1, 16);
  Time tl = 0, tr = 0;
  m.spawn(0, [&] {
    Time t0 = m.now();
    (void)m.read<std::uint32_t>(local);
    tl = m.now() - t0;
    t0 = m.now();
    (void)m.read<std::uint32_t>(remote);
    tr = m.now() - t0;
  });
  m.run();
  EXPECT_EQ(tl, 800u) << "local latency is size-independent";
  EXPECT_GE(tr, 2u * tl) << "remote always costs several times local";
  EXPECT_LE(tr, 6u * tl) << "and never more than ~5x plus a stage";
}

TEST_P(MachineSizes, UniformSystemSweepCompletesEverywhere) {
  const std::uint32_t nodes = GetParam();
  Machine m(butterfly1(nodes));
  chrys::Kernel k(m);
  us::UniformSystem us(k);
  std::uint32_t sum = 0;
  us.run_main([&] {
    sim::PhysAddr acc = us.alloc_global(4);
    us.put<std::uint32_t>(acc, 0);
    us.for_all(0, 2 * nodes, [acc](us::TaskCtx& c) {
      c.us.atomic_add(acc, 1);
    });
    sum = us.get<std::uint32_t>(acc);
  });
  EXPECT_EQ(sum, 2 * nodes);
  EXPECT_FALSE(m.deadlocked());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MachineSizes,
                         ::testing::Values(2u, 4u, 7u, 16u, 33u, 64u, 128u,
                                           256u));

// --- Full-stack scenario ---------------------------------------------------------

TEST(FullStack, CrowdBuildsWorkersThatUseBridgeAndReplay) {
  // Crowd Control spawns workers; each writes blocks into Bridge under
  // Instant Replay monitoring; the recorded log is structurally sane and
  // the file contents are right.
  Machine m(butterfly1(16));
  chrys::Kernel k(m);
  replay::Monitor mon(k, 8);
  mon.set_mode(replay::Mode::kRecord);
  const std::uint32_t obj = mon.register_object(0, "fs-meta");
  k.create_process(15, [&] {
    bridge::BridgeFs fs(k, 4);  // servers on nodes 0-3
    const bridge::FileId f = fs.create("log");
    // Workers must not share nodes with the Bridge servers: a worker
    // spinning in the CREW lock would monopolize its node's CPU and starve
    // a co-located server — the paper's warning that with spin locks
    // "implementation-dependent deadlock becomes a serious possibility".
    crowd::CrowdOptions opt;
    opt.base_node = 4;
    crowd::spread(
        k, 8,
        [&](std::uint32_t w) {
          std::vector<std::uint8_t> blk(bridge::kBlockSize,
                                        static_cast<std::uint8_t>(w));
          mon.begin_write(w, obj);
          fs.write_block(f, w, blk.data());
          mon.end_write(w, obj);
        },
        opt);
    // Every worker's block arrived intact.
    std::vector<std::uint8_t> buf(bridge::kBlockSize);
    for (std::uint32_t w = 0; w < 8; ++w) {
      fs.read_block(f, w, buf.data());
      EXPECT_EQ(buf[0], static_cast<std::uint8_t>(w));
      EXPECT_EQ(buf[bridge::kBlockSize - 1], static_cast<std::uint8_t>(w));
    }
    fs.shutdown();
  });
  m.run();
  ASSERT_FALSE(m.deadlocked());
  replay::Log log = mon.take_log();
  EXPECT_EQ(log.total_entries(), 8u);
  // Versions 0..7 were handed out exactly once each.
  std::vector<bool> seen(8, false);
  for (const auto& per : log.per_actor)
    for (const auto& e : per) seen[e.version] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(FullStack, SixteenMegabyteLimitBitesRealPrograms) {
  // A Uniform System program that tries to build a 20 MB working set dies
  // at the paper's 16 MB ceiling; the same program on a Mach-era config
  // (heap_limit lifted) succeeds.
  auto run = [](std::size_t limit) {
    Machine m(butterfly1(64));
    chrys::Kernel k(m);
    us::UsConfig cfg;
    if (limit != 0) cfg.heap_limit = limit;
    us::UniformSystem us(k, cfg);
    int code = chrys::kThrowNone;
    us.run_main([&] {
      code = k.catch_block([&] {
        for (int i = 0; i < 40; ++i) (void)us.alloc_global(512 * 1024);
      });
    });
    return code;
  };
  EXPECT_EQ(run(0), chrys::kThrowOutOfMemory);             // Butterfly-I
  EXPECT_EQ(run(64u * 1024 * 1024), chrys::kThrowNone);    // paged successor
}

}  // namespace
}  // namespace bfly
