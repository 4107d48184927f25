// Observer-facing contract of the scalable primitives: attaching the
// moviola wait-graph Detector and the analyze race detector together
// to an MCS + tree-barrier workload leaves the run event-identical through
// Instant Replay, publishes the happens-before edges that keep the race
// detector quiet, feeds the lock-order lint, and never manufactures a
// deadlock out of local-spin waiting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analyze/analyze.hpp"
#include "chrysalis/kernel.hpp"
#include "moviola/wait_graph.hpp"
#include "replay/instant_replay.hpp"
#include "sync/barrier.hpp"
#include "sync/mcs.hpp"

namespace bfly::sync {
namespace {

using replay::AccessEntry;
using replay::Log;
using replay::Mode;
using replay::Monitor;
using sim::butterfly1;
using sim::Machine;
using sim::Time;

struct SyncRun {
  std::vector<std::uint32_t> order;
  Log log;
  Time elapsed = 0;
};

// Four workers hammer an MCS-guarded shared object for a few rounds, with
// a tree barrier between rounds — both primitives exercised under real
// contention, all accesses recorded through the Instant Replay monitor.
SyncRun run_sync_workload(bool instrumented) {
  Machine m(butterfly1(8));
  chrys::Kernel k(m);
  std::unique_ptr<moviola::Detector> det;
  std::unique_ptr<analyze::Analyzer> ana;
  if (instrumented) ana = std::make_unique<analyze::Analyzer>(m);
  if (instrumented) det = std::make_unique<moviola::Detector>(m, &k);

  const std::uint32_t actors = 4;
  std::vector<sim::NodeId> nodes{0, 1, 2, 3};
  McsLock lock(m, 0, nodes, sim::kMicrosecond);
  TreeBarrier bar(m, nodes, 2);
  Monitor mon(k, actors);
  SyncRun out;
  const std::uint32_t obj = mon.register_object(0, "counter");
  mon.set_mode(Mode::kRecord);

  for (std::uint32_t a = 0; a < actors; ++a) {
    k.create_process(nodes[a], [&, a] {
      for (std::uint32_t r = 0; r < 5; ++r) {
        k.delay((1 + (a * 13 + r * 7) % 29) * 100 * sim::kMicrosecond);
        lock.acquire(a);
        mon.begin_write(a, obj);
        out.order.push_back(a);
        m.charge(300 * sim::kMicrosecond);
        mon.end_write(a, obj);
        lock.release(a);
        bar.arrive(a);
      }
    });
  }
  out.elapsed = m.run();
  out.log = mon.take_log();
  if (det) {
    EXPECT_TRUE(det->analyze().empty()) << det->report();
    EXPECT_TRUE(det->lints().empty());
  }
  if (ana) {
    EXPECT_EQ(ana->races_total(), 0u) << ana->report();
    EXPECT_TRUE(ana->lock_cycles().empty());
  }
  return out;
}

void expect_logs_identical(const Log& a, const Log& b) {
  ASSERT_EQ(a.per_actor.size(), b.per_actor.size());
  for (std::size_t i = 0; i < a.per_actor.size(); ++i) {
    ASSERT_EQ(a.per_actor[i].size(), b.per_actor[i].size()) << "actor " << i;
    for (std::size_t j = 0; j < a.per_actor[i].size(); ++j) {
      const AccessEntry& x = a.per_actor[i][j];
      const AccessEntry& y = b.per_actor[i][j];
      EXPECT_EQ(x.object, y.object) << "actor " << i << " entry " << j;
      EXPECT_EQ(x.version, y.version) << "actor " << i << " entry " << j;
      EXPECT_EQ(x.readers, y.readers) << "actor " << i << " entry " << j;
      EXPECT_EQ(x.is_write, y.is_write) << "actor " << i << " entry " << j;
      EXPECT_EQ(x.at, y.at) << "actor " << i << " entry " << j;
    }
  }
}

TEST(SyncObservers, InstrumentedRunIsEventIdenticalToBare) {
  const SyncRun bare = run_sync_workload(/*instrumented=*/false);
  const SyncRun inst = run_sync_workload(/*instrumented=*/true);
  EXPECT_EQ(inst.order, bare.order);
  EXPECT_EQ(inst.elapsed, bare.elapsed);
  expect_logs_identical(inst.log, bare.log);
}

TEST(SyncObservers, HeavyMcsContentionIsNotMistakenForADeadlock) {
  // Waiters park by *spinning locally* — runnable the whole time.  A
  // quiescence-based detector watching the run must see ordinary progress,
  // not a wedge, even with its watchdog armed.
  Machine m(butterfly1(4));
  chrys::Kernel k(m);
  moviola::Detector det(m, &k);
  det.arm_watchdog(5 * sim::kMillisecond);
  std::vector<sim::NodeId> nodes{0, 1, 2, 3};
  McsLock lock(m, 0, nodes, sim::kMicrosecond);
  int total = 0;
  for (std::uint32_t w = 0; w < 4; ++w) {
    k.create_process(nodes[w], [&, w] {
      for (int r = 0; r < 10; ++r) {
        lock.acquire(w);
        m.charge(2 * sim::kMillisecond);  // long holds: deep queues
        lock.release(w);
        ++total;
      }
    });
  }
  m.run();
  EXPECT_EQ(total, 40);
  EXPECT_FALSE(m.deadlocked());
  EXPECT_FALSE(det.fired());
  EXPECT_TRUE(det.analyze().empty()) << det.report();
}

TEST(SyncObservers, WedgedMcsWaiterIsNamedAsStarved) {
  // The hog takes the MCS lock and blocks in the kernel; the waiter spins
  // on its local flag forever.  The wait-for graph must name the *waiter*
  // (via the probes it publishes on the lock's identity channel), not
  // report a phantom deadlock cycle.
  Machine m(butterfly1(2));
  chrys::Kernel k(m);
  moviola::Detector det(m, &k);
  std::vector<sim::NodeId> nodes{0, 1};
  McsLock lock(m, 0, nodes, sim::kMicrosecond);
  k.create_process(0, [&] {
    lock.acquire(0);
    const chrys::Oid ev = k.make_event();
    (void)k.event_wait(ev);  // never posted: holds the lock forever
  }, "hog");
  k.create_process(1, [&] {
    k.delay(sim::kMillisecond);
    lock.acquire(1);  // spins forever on its local flag
  }, "spinner");
  m.engine().post_at(50 * sim::kMillisecond, [&m] { m.engine().stop(); });
  m.run();

  const auto findings = det.analyze();
  bool starved_spinner = false;
  for (const auto& f : findings) {
    EXPECT_NE(f.kind, moviola::StuckKind::kDeadlock) << det.report();
    if (f.kind == moviola::StuckKind::kStarvation &&
        f.members == std::vector<std::string>{"spinner"}) {
      starved_spinner = true;
      EXPECT_EQ(f.channels,
                (std::vector<std::uint64_t>{sim::chan_of(lock.tail_cell())}));
    }
  }
  EXPECT_TRUE(starved_spinner) << det.report();
}

TEST(SyncObservers, BarrierEdgesOrderCrossPhaseAccesses) {
  // Worker 0 writes the word before the barrier; worker 1 reads it after.
  // Without the release/acquire edges arrive() publishes, this is a
  // textbook race; with them the analyzer stays quiet.
  Machine m(butterfly1(4));
  analyze::Analyzer ana(m);
  std::vector<sim::NodeId> nodes{0, 1};
  TreeBarrier bar(m, nodes, 2);
  const sim::PhysAddr data = m.alloc(0, 8);
  m.poke<std::uint32_t>(data, 0);
  m.spawn(0, [&] {
    m.write<std::uint32_t>(data, 42);
    bar.arrive(0);
  });
  m.spawn(1, [&] {
    bar.arrive(1);
    EXPECT_EQ(m.read<std::uint32_t>(data), 42u);
  });
  m.run();
  EXPECT_EQ(ana.races_total(), 0u) << ana.report();
}

TEST(SyncObservers, LockOrderLintNamesMcsCycles) {
  // Opposite acquisition orders over two MCS locks — serialized in time so
  // the run completes, but the potential-deadlock cycle must still be
  // reported, symbolized with the MCS tail labels.
  Machine m(butterfly1(4));
  analyze::Analyzer ana(m);
  std::vector<sim::NodeId> nodes{0, 1};
  McsLock a(m, 0, nodes), b(m, 1, nodes);
  m.spawn(0, [&] {
    a.acquire(0);
    b.acquire(0);
    b.release(0);
    a.release(0);
  });
  m.spawn(1, [&] {
    m.charge(100 * sim::kMillisecond);  // well after worker 0 finished
    b.acquire(1);
    a.acquire(1);
    a.release(1);
    b.release(1);
  });
  m.run();
  const auto cycles = ana.lock_cycles();
  ASSERT_FALSE(cycles.empty()) << ana.report();
  bool named = false;
  for (const auto& c : cycles)
    for (const auto& n : c.names)
      if (n.find("sync.mcs.tail") != std::string::npos) named = true;
  EXPECT_TRUE(named) << ana.report();
}

}  // namespace
}  // namespace bfly::sync
