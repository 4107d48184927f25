#include "sim/fiber.hpp"

#include <gtest/gtest.h>
#include <xmmintrin.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::sim {
namespace {

// The SSE control bits a fiber may change: rounding mode and flush-to-zero.
unsigned sse_control() {
  return _mm_getcsr() & (_MM_ROUND_MASK | _MM_FLUSH_ZERO_MASK);
}

// An address laundered through an empty asm, so the compiler cannot fold an
// alignment check from the object's declared alignment.
std::uintptr_t opaque_address(const void* p) {
  auto v = reinterpret_cast<std::uintptr_t>(p);
  asm volatile("" : "+r"(v));
  return v;
}

// True when a 16-byte-aligned local really lands on a 16-byte boundary and
// an aligned SSE load/store on it works (movaps faults on a misaligned
// stack).
[[gnu::noinline]] bool aligned_local_ok() {
  alignas(16) float v[4] = {1, 2, 3, 4};
  __m128 x = _mm_load_ps(v);
  _mm_store_ps(v, _mm_add_ps(x, x));
  return opaque_address(v) % 16 == 0 && v[3] == 8.0f;
}

TEST(Fiber, RunsBodyOnResume) {
  bool ran = false;
  Fiber f([&] { ran = true; }, 64 * 1024);
  EXPECT_FALSE(ran);
  f.resume();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumeContinues) {
  int step = 0;
  Fiber f(
      [&] {
        step = 1;
        Fiber::yield_to_engine();
        step = 2;
      },
      64 * 1024);
  f.resume();
  EXPECT_EQ(step, 1);
  EXPECT_EQ(f.state(), Fiber::State::kBlocked);
  f.resume();
  EXPECT_EQ(step, 2);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution) {
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::current(); }, 64 * 1024);
  EXPECT_EQ(Fiber::current(), nullptr);
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, DeepStackUse) {
  // Recursion to a depth that would smash a tiny stack must work with the
  // configured stack size.
  std::function<int(int)> fib = [&](int n) {
    return n < 2 ? n : fib(n - 1) + fib(n - 2);
  };
  int result = 0;
  Fiber f([&] { result = fib(18); }, 192 * 1024);
  f.resume();
  EXPECT_EQ(result, 2584);
}

TEST(Fiber, FloatingPointControlStateIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const unsigned engine_sse = sse_control();
  int a_after = -1, b_first = -1, b_after = -1;
  unsigned a_sse_after = 0, b_sse_first = 0;
  Fiber a(
      [&] {
        std::fesetround(FE_UPWARD);
        _MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);
        Fiber::yield_to_engine();
        a_after = std::fegetround();
        a_sse_after = sse_control();
      },
      64 * 1024);
  Fiber b(
      [&] {
        b_first = std::fegetround();
        b_sse_first = sse_control();
        std::fesetround(FE_DOWNWARD);
        Fiber::yield_to_engine();
        b_after = std::fegetround();
      },
      64 * 1024);
  a.resume();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(sse_control(), engine_sse);
  b.resume();
  EXPECT_EQ(b_first, FE_TONEAREST);
  EXPECT_EQ(b_sse_first, engine_sse);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  a.resume();
  EXPECT_EQ(a_after, FE_UPWARD);
  EXPECT_EQ(a_sse_after, static_cast<unsigned>(_MM_ROUND_UP | _MM_FLUSH_ZERO_ON));
  b.resume();
  EXPECT_EQ(b_after, FE_DOWNWARD);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(sse_control(), engine_sse);
}

TEST(Fiber, AlignedLocalsOnFirstEntryAndAfterResumes) {
  std::vector<bool> ok;
  Fiber f(
      [&] {
        ok.push_back(aligned_local_ok());
        for (int i = 0; i < 3; ++i) {
          Fiber::yield_to_engine();
          ok.push_back(aligned_local_ok());
        }
      },
      64 * 1024);
  while (!f.finished()) f.resume();
  EXPECT_EQ(ok, std::vector<bool>(4, true));
}

TEST(Fiber, ExceptionThrownAndCaughtAcrossYield) {
  std::string caught;
  int rethrown = 0;
  Fiber f(
      [&] {
        try {
          Fiber::yield_to_engine();
          throw std::runtime_error("inside the fiber");
        } catch (const std::runtime_error& e) {
          caught = e.what();
        }
        try {
          try {
            throw 7;
          } catch (int) {
            Fiber::yield_to_engine();  // switch out inside a handler
            throw;
          }
        } catch (int v) {
          rethrown = v;
        }
      },
      64 * 1024);
  f.resume();
  EXPECT_TRUE(caught.empty());
  f.resume();
  EXPECT_EQ(caught, "inside the fiber");
  EXPECT_EQ(rethrown, 0);
  f.resume();
  EXPECT_EQ(rethrown, 7);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, KillUnwindRunsDestructorsAfterYields) {
  struct Guard {
    std::vector<int>* log;
    int id;
    ~Guard() { log->push_back(id); }
  };
  std::vector<int> destroyed;
  bool kill = false;
  bool past_kill = false;
  Fiber f(
      [&] {
        Guard outer{&destroyed, 1};
        Fiber::yield_to_engine();
        Guard inner{&destroyed, 2};
        for (;;) {
          Fiber::yield_to_engine();
          if (kill) throw FiberKill{};
        }
        past_kill = true;
      },
      64 * 1024);
  for (int i = 0; i < 4; ++i) f.resume();
  EXPECT_TRUE(destroyed.empty());
  EXPECT_FALSE(f.finished());
  kill = true;
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_FALSE(past_kill);
  EXPECT_EQ(destroyed, (std::vector<int>{2, 1}));
}

TEST(MachineFiber, ThousandFibersPingPongInOrder) {
  // 512 pairs: the first of each pair wakes its partner and parks, the
  // partner logs, wakes it back and parks, for several rounds.  Every hand
  // off is a switch through the engine at one simulated time, so the order
  // is fixed by event sequence numbers alone: per round, all first halves
  // in spawn order, then all partners in spawn order.
  constexpr int kPairs = 512;
  constexpr int kRounds = 4;
  Machine m(exascale_ish(2 * kPairs));
  std::vector<std::pair<int, int>> log;  // (fiber, round)
  std::vector<Fiber*> fibers(2 * kPairs, nullptr);
  for (int p = 0; p < kPairs; ++p) {
    const int a = 2 * p, b = a + 1;
    fibers[a] = m.spawn(a, [&, a, b] {
      m.charge(1000);  // let every partner park first
      for (int r = 0; r < kRounds; ++r) {
        log.emplace_back(a, r);
        m.wakeup(fibers[b]);
        m.park();
      }
    });
    fibers[b] = m.spawn(b, [&, a, b] {
      for (int r = 0; r < kRounds; ++r) {
        m.park();
        log.emplace_back(b, r);
        m.wakeup(fibers[a]);
      }
    });
  }
  m.run();
  EXPECT_FALSE(m.deadlocked());
  std::vector<std::pair<int, int>> expect;
  for (int r = 0; r < kRounds; ++r)
    for (int half = 0; half < 2; ++half)
      for (int p = 0; p < kPairs; ++p) expect.emplace_back(2 * p + half, r);
  EXPECT_EQ(log, expect);
}

TEST(MachineFiber, ChargeAdvancesTime) {
  Machine m(butterfly1(4));
  Time end = 0;
  m.spawn(0, [&] {
    m.charge(1000);
    m.charge(500);
    end = m.now();
  });
  m.run();
  EXPECT_EQ(end, 1500u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(MachineFiber, ParkAndWakeup) {
  Machine m(butterfly1(4));
  Fiber* sleeper = nullptr;
  Time woke_at = 0;
  sleeper = m.spawn(0, [&] {
    m.park();
    woke_at = m.now();
  });
  m.spawn(1, [&] {
    m.charge(5000);
    m.wakeup(sleeper);
  });
  m.run();
  EXPECT_EQ(woke_at, 5000u);
}

TEST(MachineFiber, UnwokenParkIsDeadlock) {
  Machine m(butterfly1(2));
  m.spawn(0, [&] { m.park(); });
  m.run();
  EXPECT_TRUE(m.deadlocked());
  EXPECT_EQ(m.blocked_fibers().size(), 1u);
}

TEST(MachineFiber, ManyFibersInterleaveDeterministically) {
  Machine m(butterfly1(16));
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    m.spawn(i, [&, i] {
      m.charge(100 * (i % 4));
      order.push_back(i);
    });
  }
  m.run();
  ASSERT_EQ(order.size(), 16u);
  // Sorted by (charge time, spawn order): all i%4==0 first, etc.
  std::vector<int> expect;
  for (int r = 0; r < 4; ++r)
    for (int i = r; i < 16; i += 4) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(MachineFiber, SleepUntil) {
  Machine m(butterfly1(2));
  Time t = 0;
  m.spawn(0, [&] {
    m.sleep_until(9000);
    t = m.now();
  });
  m.run();
  EXPECT_EQ(t, 9000u);
}

}  // namespace
}  // namespace bfly::sim
