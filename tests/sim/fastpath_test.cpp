// The charge() switch-free fast path: legality and A/B equivalence at the
// raw-machine level.  (The app-level determinism suite — Gauss, sorts, SMP,
// Instant Replay log equality — lives in tests/integration.)
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::sim {
namespace {

MachineConfig cfg_fast(std::uint32_t nodes, bool fast) {
  MachineConfig c = butterfly1(nodes);
  c.host_fastpath = fast;
  return c;
}

TEST(Fastpath, SoloFiberChargesWithoutContextSwitches) {
  Machine m(cfg_fast(4, true));
  m.spawn(0, [&] {
    for (int i = 0; i < 100; ++i) m.charge(10);
  });
  m.run();
  EXPECT_EQ(m.now(), 1000u);
  const HostPerf hp = m.host_perf();
  EXPECT_TRUE(hp.fastpath_enabled);
  EXPECT_EQ(hp.fastpath_charges, 100u);
  EXPECT_EQ(hp.fiber_resumes, 1u);       // the initial spawn resume only
  EXPECT_EQ(hp.events_dispatched, 1u);
}

TEST(Fastpath, DisabledByConfigTakesSlowPath) {
  Machine m(cfg_fast(4, false));
  m.spawn(0, [&] {
    for (int i = 0; i < 100; ++i) m.charge(10);
  });
  m.run();
  EXPECT_EQ(m.now(), 1000u);  // simulated outcome identical
  const HostPerf hp = m.host_perf();
  EXPECT_FALSE(hp.fastpath_enabled);
  EXPECT_EQ(hp.fastpath_charges, 0u);
  EXPECT_EQ(hp.fiber_resumes, 101u);  // spawn + one per charge
}

TEST(Fastpath, StrictlyEarlierRequired_TiedEventRunsFirst) {
  // A pending event at exactly the fiber's resume time must win (it holds
  // the older sequence number), so charge() may not warp over it.
  Machine m(cfg_fast(4, true));
  std::vector<int> order;
  m.engine().post_at(10, [&] { order.push_back(1); });
  m.spawn(0, [&] {
    m.charge(10);  // resume would tie with the t=10 closure: slow path
    order.push_back(2);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(m.host_perf().fastpath_charges, 0u);
}

TEST(Fastpath, EarlierResumeWarpsOverLaterEvent) {
  Machine m(cfg_fast(4, true));
  std::vector<int> order;
  m.engine().post_at(100, [&] { order.push_back(2); });
  m.spawn(0, [&] {
    m.charge(10);  // strictly earlier than t=100: warp, no yield
    order.push_back(1);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GE(m.host_perf().fastpath_charges, 1u);
}

TEST(Fastpath, StopRequestForcesSlowPath) {
  // A fiber that stops the engine and then charges must actually stop: the
  // fast path may not warp past a requested stop.
  auto run_one = [](bool fast) {
    Machine m(cfg_fast(4, fast));
    bool resumed_after_stop = false;
    Fiber* f = m.spawn(0, [&] {
      m.engine().stop();
      m.charge(10);
      resumed_after_stop = true;
    });
    m.run();
    EXPECT_FALSE(resumed_after_stop);
    EXPECT_FALSE(f->finished());
    return m.engine().pending();
  };
  EXPECT_EQ(run_one(true), run_one(false));
}

TEST(Fastpath, ObserverAttachDisablesFastPath) {
  Machine m(cfg_fast(4, true));
  Probe obs;
  m.attach(&obs);
  m.spawn(0, [&] { m.charge(10); });
  m.run();
  EXPECT_EQ(m.host_perf().fastpath_charges, 0u);
}

TEST(Fastpath, ContendedWorkloadIdenticalOnAndOff) {
  // Many fibers hammering one module: interleavings, stats, and final time
  // must be bit-identical with the fast path on and off.
  auto run_one = [](bool fast) {
    Machine m(cfg_fast(16, fast));
    PhysAddr a = m.alloc(3, 64);
    for (NodeId n = 0; n < 16; ++n) {
      m.spawn(n, [&m, a] {
        for (int i = 0; i < 20; ++i) {
          (void)m.fetch_add_u32(a, 1);
          m.charge(700);
        }
      });
    }
    const Time end = m.run();
    return std::tuple{end, m.peek<std::uint32_t>(a),
                      m.stats().total_queue_ns(),
                      m.stats().total_remote_refs()};
  };
  EXPECT_EQ(run_one(true), run_one(false));
}

TEST(Fastpath, AllOperationKindsIdenticalOnAndOff) {
  // 64 fibers, one per node, hammering each other's counters, cells and
  // block buffers with every timed operation kind, plus one cross-node
  // park/wakeup: memory, per-node stats and elapsed time must match.
  constexpr std::uint32_t kNodes = 64;
  constexpr std::uint32_t kRounds = 6;
  auto run_one = [](bool fast) {
    Machine m(cfg_fast(kNodes, fast));
    std::vector<PhysAddr> counter(kNodes), cell(kNodes), block(kNodes),
        journal(kNodes);
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      counter[n] = m.alloc(n, 8);
      cell[n] = m.alloc(n, 8);
      block[n] = m.alloc(n, 64);
      journal[n] = m.alloc(n, 4 * (kRounds + 2));
    }
    Fiber* sleeper = m.spawn_parked(0, [&] {
      m.poke<std::uint32_t>(journal[0].plus(4 * kRounds),
                            static_cast<std::uint32_t>(m.now()));
    });
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      m.spawn(n, [&, n] {
        std::uint32_t acc = n;
        for (std::uint32_t i = 0; i < kRounds; ++i) {
          m.charge(50 * ((n + i) % 9 + 1));
          acc ^= m.fetch_add_u32(counter[(n * 5 + i * 11) % kNodes], n + 1);
          acc += m.read<std::uint32_t>(cell[(n + i * 17) % kNodes]);
          m.write<std::uint32_t>(cell[n], acc + i);
          std::uint8_t buf[64];
          if (i == 2) {
            for (std::uint32_t j = 0; j < 64; ++j)
              buf[j] = static_cast<std::uint8_t>(acc + j);
            m.block_write(block[(n + 9) % kNodes], buf, 64);
          }
          if (i == 3) {
            m.block_read(buf, block[(n + 13) % kNodes], 64);
            acc += buf[0] + buf[63];
          }
          if (i == 4) m.block_copy(block[(n + 3) % kNodes], block[n], 64);
          m.access_words(cell[(n + i * 7) % kNodes], 3);
          acc ^= m.fetch_or_u32(counter[(n + i) % kNodes], 1u << (n % 31));
          m.poke<std::uint32_t>(journal[n].plus(4 * i),
                                acc ^ static_cast<std::uint32_t>(m.now()));
        }
        if (n == kNodes - 1) {
          m.charge(2 * kMillisecond);  // the sleeper is parked by now
          m.wakeup(sleeper);
        }
        m.charge(1000);
      });
    }
    const Time end = m.run();
    std::vector<std::uint8_t> memory;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      for (const auto& [a, bytes] :
           {std::pair{journal[n], std::size_t{4 * (kRounds + 2)}},
            std::pair{counter[n], std::size_t{8}},
            std::pair{cell[n], std::size_t{8}},
            std::pair{block[n], std::size_t{64}}}) {
        std::vector<std::uint8_t> buf(bytes);
        m.peek_bytes(buf.data(), a, bytes);
        memory.insert(memory.end(), buf.begin(), buf.end());
      }
    }
    std::vector<std::uint64_t> stats;
    for (const NodeStats& ns : m.stats().node)
      for (std::uint64_t v : {ns.local_refs, ns.remote_refs, ns.serviced_remote,
                              ns.stall_ns, ns.queue_ns, ns.compute_ns,
                              ns.block_words})
        stats.push_back(v);
    return std::tuple{end, memory, stats};
  };
  EXPECT_EQ(run_one(true), run_one(false));
}

TEST(Fastpath, DeadlockDetectionUnaffected) {
  Machine m(cfg_fast(4, true));
  m.spawn(0, [&] {
    m.charge(100);  // fast path
    m.park();       // nobody will wake us
  });
  m.run();
  EXPECT_TRUE(m.deadlocked());
  ASSERT_EQ(m.blocked_fibers().size(), 1u);
}

TEST(Fastpath, SleepUntilUsesFastPath) {
  Machine m(cfg_fast(4, true));
  m.spawn(0, [&] { m.sleep_until(5000); });
  m.run();
  EXPECT_EQ(m.now(), 5000u);
  EXPECT_EQ(m.host_perf().fastpath_charges, 1u);
}

TEST(HostEngine, EveryRunReportsTheSerialEngine) {
  // perfbench reads these three accessors for its parallel-engine rows: one
  // shard, a forfeit reason on every machine, and no windows.
  Machine m(butterfly1(16));
  m.spawn(0, [&] { (void)m.read<std::uint32_t>(PhysAddr{5, 0}); });
  m.run();
  EXPECT_EQ(m.host_shards(), 1u);
  EXPECT_NE(m.parallel_forfeit(), nullptr);
  EXPECT_EQ(m.parallel_stats().windows, 0u);
  EXPECT_EQ(m.parallel_stats().barrier_wait_ns, 0u);
  EXPECT_EQ(m.parallel_stats().run_wall_ns, 0u);
}

}  // namespace
}  // namespace bfly::sim
