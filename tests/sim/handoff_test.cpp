// Direct fiber-to-fiber handoff: a fiber that blocks while the earliest
// pending event resumes another fiber switches straight to it, bypassing
// the engine.  These tests pin the bookkeeping that path shares with the
// engine's own dispatch: event order, stop(), reaping, deadlock views, kill
// unwinds, and the per-fiber state a switch must carry.
#include <gtest/gtest.h>
#include <xmmintrin.h>

#include <cfenv>
#include <stdexcept>
#include <string>
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

// The SSE control bits a fiber may change: rounding mode and flush-to-zero.
unsigned sse_control() {
  return _mm_getcsr() & (_MM_ROUND_MASK | _MM_FLUSH_ZERO_MASK);
}

TEST(Handoff, FibersAndClosuresAtEqualTimesRunInSeqOrder) {
  // Closures X (posted before the run) and Y (posted by X) share time 100
  // with the fibers' resumes; every step below is forced by (time, seq):
  //   t=0   A0 hands off to B (B's spawn resume is next), B0 yields: X's
  //         seq is below B's fresh resume, so the engine runs X.
  //   t=100 A1 charges 0 — B's resume is earlier in seq, so A hands off;
  //         B1 charges 0 and yields to Y, posted before B's new resume;
  //         then A2 and B2 by the same rule.
  Machine m(butterfly1(4));
  std::vector<std::string> log;
  m.spawn(0, [&] {
    log.push_back("A0");
    m.charge(100);
    log.push_back("A1");
    m.charge(0);
    log.push_back("A2");
  });
  m.spawn(1, [&] {
    log.push_back("B0");
    m.charge(100);
    log.push_back("B1");
    m.charge(0);
    log.push_back("B2");
  });
  m.engine().post_at(100, [&] {
    log.push_back("X");
    m.engine().post_at(100, [&] { log.push_back("Y"); });
  });
  m.run();
  EXPECT_EQ(log, (std::vector<std::string>{"A0", "B0", "X", "A1", "B1", "Y",
                                           "A2", "B2"}));
  EXPECT_FALSE(m.deadlocked());
  EXPECT_GE(m.host_perf().handoffs, 2u);  // A0 -> B0 and A1 -> B1
}

TEST(Handoff, SelfResumeCountsAsAResumeWithoutASwitch) {
  // On the slow path, each of A's charges posts a resume earlier than the
  // late fiber's start, so A's own resume is the next event and A keeps
  // running.  Events and resumes are still counted.
  Machine m(cfg_fast(4, false));
  std::vector<std::pair<char, Time>> log;
  m.spawn(0, [&] {
    for (int i = 0; i < 10; ++i) m.charge(10);
    log.emplace_back('A', m.now());
  });
  m.spawn(1, [&] { log.emplace_back('L', m.now()); }, "late", 1000);
  m.run();
  EXPECT_EQ(log, (std::vector<std::pair<char, Time>>{{'A', 100}, {'L', 1000}}));
  const HostPerf hp = m.host_perf();
  EXPECT_EQ(hp.events_dispatched, 12u);
  EXPECT_EQ(hp.fiber_resumes, 12u);
  EXPECT_EQ(hp.handoffs, 0u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(Handoff, StopFromAFiberHaltsDispatchBeforeAFiberEvent) {
  for (bool park : {false, true}) {
    SCOPED_TRACE(park ? "stop then park" : "stop then charge");
    Machine m(butterfly1(4));
    Fiber* a = nullptr;
    bool b_ran = false;
    a = m.spawn(0, [&] {
      m.engine().stop();
      // The next event resumes B, a fiber: a handoff would run it.
      if (park) {
        m.park();
      } else {
        m.charge(10);
      }
    });
    m.spawn(1, [&] {
      b_ran = true;
      if (park) m.wakeup(a);
    });
    m.run();
    EXPECT_FALSE(b_ran);
    EXPECT_EQ(m.live_fibers(), 2u);
    m.run();  // a fresh run clears the stop and dispatches the rest
    EXPECT_TRUE(b_ran);
    EXPECT_EQ(m.live_fibers(), 0u);
  }
}

TEST(Handoff, FinishedFiberEnteredByHandoffIsReaped) {
  // The engine resumes A; A hands off to B; B finishes, so control comes
  // back to the engine from B, not from A.  B must be reaped then.
  Machine m(butterfly1(4));
  Fiber* b = nullptr;
  bool b_live_mid_run = true;
  std::size_t live_mid_run = 0;
  m.spawn(0, [&] { m.charge(100); });
  b = m.spawn(1, [] {});
  m.engine().post_at(50, [&] {
    b_live_mid_run = m.fiber_live(b);
    live_mid_run = m.live_fibers();
  });
  m.run();
  EXPECT_GE(m.host_perf().handoffs, 1u);
  EXPECT_FALSE(b_live_mid_run);
  EXPECT_EQ(live_mid_run, 1u);  // only A, waiting for its t=100 resume
  EXPECT_EQ(m.live_fibers(), 0u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(Handoff, LastRunnableFiberParkingThroughAHandoffIsADeadlock) {
  // A parks and hands off to B; B (entered by the handoff) parks too with
  // only a closure left, so it yields to the engine: both are blocked, no
  // resume is pending, and the run ends deadlocked.
  Machine m(butterfly1(4));
  Fiber* a = m.spawn(0, [&] { m.park(); });
  Fiber* b = m.spawn(1, [&] { m.park(); });
  bool quiescent = false;
  std::vector<Fiber*> blocked;
  m.engine().post_at(50, [&] {
    quiescent = m.quiescent();
    blocked = m.blocked_fibers();
  });
  m.run();
  EXPECT_EQ(m.host_perf().handoffs, 1u);
  EXPECT_TRUE(quiescent);
  EXPECT_EQ(blocked, (std::vector<Fiber*>{a, b}));
  EXPECT_TRUE(m.deadlocked());
  EXPECT_EQ(m.live_fibers(), 2u);
  EXPECT_EQ(m.blocked_fibers(), (std::vector<Fiber*>{a, b}));
}

TEST(Handoff, KillUnwindsFibersEnteredByHandoff) {
  // Node 1's fibers are both entered by handoff: V1 parks (no resume
  // pending), V2 waits on a charge (resume pending).  Killing node 1 must
  // unwind both through FiberKill, run their destructors, and reap them.
  struct Guard {
    std::vector<int>* log;
    int id;
    ~Guard() { log->push_back(id); }
  };
  Machine m(butterfly1(4));
  m.kill_node(1, 500);
  std::vector<int> destroyed;
  bool v1_past = false, v2_past = false;
  m.spawn(0, [&] { m.charge(10); });  // hands off to V1
  m.spawn(1, [&] {
    Guard g{&destroyed, 1};
    m.park();  // hands off to V2
    v1_past = true;
  });
  m.spawn(1, [&] {
    Guard g{&destroyed, 2};
    m.charge(1000);  // hands back to the first fiber
    v2_past = true;
  });
  m.run();
  EXPECT_GE(m.host_perf().handoffs, 3u);
  EXPECT_FALSE(v1_past);
  EXPECT_FALSE(v2_past);
  EXPECT_EQ(destroyed, (std::vector<int>{1, 2}));
  EXPECT_EQ(m.live_fibers(), 0u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(Handoff, ExceptionsAndFpControlSurviveFiberToFiberSwitches) {
  // Two fibers at one time charge 0 in turn on the slow path: each charge
  // hands off to the other, so every switch below is fiber to fiber.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const unsigned engine_sse = sse_control();
  Machine m(cfg_fast(4, false));
  std::vector<int> a_round, b_round;
  std::vector<unsigned> a_sse, b_sse;
  std::string caught;
  int rethrown = 0;
  m.spawn(0, [&] {
    std::fesetround(FE_UPWARD);
    _MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);
    for (int i = 0; i < 4; ++i) {
      m.charge(0);
      a_round.push_back(std::fegetround());
      a_sse.push_back(sse_control());
    }
    try {
      try {
        throw 7;
      } catch (int) {
        m.charge(0);  // switch out inside a handler
        throw;
      }
    } catch (int v) {
      rethrown = v;
    }
  });
  m.spawn(1, [&] {
    std::fesetround(FE_DOWNWARD);
    for (int i = 0; i < 4; ++i) {
      m.charge(0);
      b_round.push_back(std::fegetround());
      b_sse.push_back(sse_control());
    }
    // A sits in its handler meanwhile; B's own throw must not disturb the
    // exception A rethrows once B hands back.
    try {
      throw std::runtime_error("inside B");
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    m.charge(0);
  });
  m.run();
  EXPECT_GE(m.host_perf().handoffs, 8u);
  EXPECT_EQ(a_round, std::vector<int>(4, FE_UPWARD));
  EXPECT_EQ(a_sse, std::vector<unsigned>(
                       4, static_cast<unsigned>(_MM_ROUND_UP |
                                                _MM_FLUSH_ZERO_ON)));
  EXPECT_EQ(b_round, std::vector<int>(4, FE_DOWNWARD));
  EXPECT_EQ(b_sse, std::vector<unsigned>(4, _MM_ROUND_DOWN));
  EXPECT_EQ(caught, "inside B");
  EXPECT_EQ(rethrown, 7);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(sse_control(), engine_sse);
  EXPECT_FALSE(m.deadlocked());
}

}  // namespace
}  // namespace bfly::sim
