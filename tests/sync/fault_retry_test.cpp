// Characterisation of the runtime layers under transient memory faults.
//
// Each run uses butterfly1(16) with a fixed FaultPlan seed and a
// mem_fault_prob of 0.05 or 0.3, and pins simulated elapsed time, the
// primitive's own spin counter, the machine-wide lock/barrier counters, the
// number of faults injected and the number of fiber resumes (every charge,
// even a zero one, yields on a faulty machine).  Together these fix what
// every fault site does: whether a faulted reference is retried, counted as
// a failed spin, charged a backoff, or propagated.  The kept per-site rules:
//   * SpinLock::acquire and CentralBarrier's sense spin count a faulted
//     probe as a failed spin (with backoff); SpinLock::try_acquire counts it
//     as a failed try and charges nothing; SpinLock::release retries its
//     store without charging;
//   * McsLock and TreeBarrier retry a faulted reference after one local
//     probe interval and do not count it as a spin;
//   * the Uniform System's infrastructure accesses and NET's stream
//     transfers give up after 6 tries (50 us backoff doubling to 5 ms) and
//     rethrow.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chrysalis/spinlock.hpp"
#include "net/mesh.hpp"
#include "sync/barrier.hpp"
#include "sync/mcs.hpp"
#include "us/uniform_system.hpp"

namespace bfly::sync {
namespace {

using sim::butterfly1;
using sim::kMicrosecond;
using sim::Machine;

constexpr double kProbs[] = {0.05, 0.3};

sim::FaultPlan faulty(double prob) {
  sim::FaultPlan plan;
  plan.seed = 1988;
  plan.mem_fault_prob = prob;
  return plan;
}

std::vector<sim::NodeId> first_nodes(std::uint32_t n) {
  std::vector<sim::NodeId> nodes;
  for (sim::NodeId i = 0; i < n; ++i) nodes.push_back(i);
  return nodes;
}

struct Pin {
  sim::Time elapsed = 0;
  std::uint64_t spins = 0;  // the primitive's spins() / local_spins()
  std::uint64_t lock_spins = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t barrier_episodes = 0;
  std::uint64_t faults = 0;  // MachineStats::mem_faults_injected
  std::uint64_t resumes = 0;  // HostPerf::fiber_resumes
  std::uint64_t extra = 0;    // per-scenario: see each test
};

Pin pin_of(Machine& m, sim::Time elapsed, std::uint64_t spins,
           std::uint64_t extra = 0) {
  return Pin{elapsed,
             spins,
             m.stats().lock_spins,
             m.stats().lock_acquisitions,
             m.stats().barrier_episodes,
             m.stats().mem_faults_injected,
             m.host_perf().fiber_resumes,
             extra};
}

void expect_pin(const Pin& got, const Pin& want, double prob) {
  SCOPED_TRACE(::testing::Message() << "mem_fault_prob " << prob);
  EXPECT_EQ(got.elapsed, want.elapsed);
  EXPECT_EQ(got.spins, want.spins);
  EXPECT_EQ(got.lock_spins, want.lock_spins);
  EXPECT_EQ(got.lock_acquisitions, want.lock_acquisitions);
  EXPECT_EQ(got.barrier_episodes, want.barrier_episodes);
  EXPECT_EQ(got.faults, want.faults);
  EXPECT_EQ(got.resumes, want.resumes);
  EXPECT_EQ(got.extra, want.extra);
  EXPECT_GT(got.faults, 0u) << "the run must take the fault branches";
}

// Eight workers, ten rounds each: a try_acquire first, acquire on a miss.
// `extra` counts the rounds won by try_acquire.
Pin spin_lock_run(double prob, sim::Time backoff_max) {
  Machine m(butterfly1(16), faulty(prob));
  const sim::PhysAddr cell = m.alloc(15, 8);
  m.poke<std::uint32_t>(cell, 0);
  chrys::SpinLock lock(m, cell, 5 * kMicrosecond, backoff_max);
  std::uint64_t tried = 0;
  int in_cs = 0;
  for (std::uint32_t w = 0; w < 8; ++w) {
    m.spawn(w, [&, w] {
      m.charge((1 + w) * 3 * kMicrosecond);
      for (int r = 0; r < 10; ++r) {
        if (lock.try_acquire())
          ++tried;
        else
          lock.acquire();
        EXPECT_EQ(++in_cs, 1);
        m.charge(20 * kMicrosecond);
        --in_cs;
        lock.release();
        m.charge(5 * kMicrosecond);
      }
    });
  }
  const sim::Time t = m.run();
  EXPECT_FALSE(m.deadlocked());
  EXPECT_EQ(lock.acquisitions(), 80u);
  return pin_of(m, t, lock.spins(), tried);
}

TEST(FaultRetry, SpinLockWithoutBackoffIsPinned) {
  const Pin want[] = {
      {1874300, 1307, 1307, 80, 0, 69, 2875, 2},
      {2038000, 1483, 1483, 80, 0, 524, 3252, 7},
  };
  for (int i = 0; i < 2; ++i)
    expect_pin(spin_lock_run(kProbs[i], 0), want[i], kProbs[i]);
}

TEST(FaultRetry, SpinLockWithBackoffIsPinned) {
  const Pin want[] = {
      {2199500, 282, 282, 80, 0, 19, 842, 20},
      {2538200, 291, 291, 80, 0, 157, 910, 29},
  };
  for (int i = 0; i < 2; ++i)
    expect_pin(spin_lock_run(kProbs[i], 80 * kMicrosecond), want[i],
               kProbs[i]);
}

// McsLock::acquire's qnode reset is two plain writes that are not retried:
// a fault there propagates before the lock is touched, so the worker simply
// calls acquire again.  `extra` counts those re-calls.
TEST(FaultRetry, McsLockIsPinned) {
  const Pin want[] = {
      {2659300, 1263, 1263, 80, 0, 88, 3433, 8},
      {2710900, 1193, 1193, 80, 0, 837, 4744, 90},
  };
  for (int i = 0; i < 2; ++i) {
    Machine m(butterfly1(16), faulty(kProbs[i]));
    const std::vector<sim::NodeId> nodes = first_nodes(8);
    McsLock lock(m, 15, nodes, kMicrosecond, 16 * kMicrosecond);
    std::uint64_t reacquires = 0;
    int in_cs = 0;
    for (std::uint32_t w = 0; w < 8; ++w) {
      m.spawn(nodes[w], [&, w] {
        m.charge((1 + w) * 3 * kMicrosecond);
        for (int r = 0; r < 10; ++r) {
          for (;;) {
            try {
              lock.acquire(w);
              break;
            } catch (const sim::MemoryFaultError&) {
              ++reacquires;
            }
          }
          EXPECT_EQ(++in_cs, 1);
          m.charge(20 * kMicrosecond);
          --in_cs;
          lock.release(w);
          m.charge(5 * kMicrosecond);
        }
      });
    }
    const sim::Time t = m.run();
    EXPECT_FALSE(m.deadlocked());
    EXPECT_EQ(lock.acquisitions(), 80u);
    expect_pin(pin_of(m, t, lock.local_spins(), reacquires), want[i],
               kProbs[i]);
  }
}

// Sixteen workers, five episodes, uneven compute between arrivals.
template <typename Barrier>
sim::Time barrier_run(Machine& m, Barrier& bar) {
  for (std::uint32_t w = 0; w < 16; ++w) {
    m.spawn(w, [&, w] {
      for (std::uint32_t r = 0; r < 5; ++r) {
        m.charge((1 + (w * 7 + r) % 13) * 10 * kMicrosecond);
        bar.arrive(w);
      }
    });
  }
  const sim::Time t = m.run();
  EXPECT_FALSE(m.deadlocked());
  return t;
}

TEST(FaultRetry, CentralBarrierIsPinned) {
  const Pin want[] = {
      {799700, 285, 285, 0, 5, 21, 841, 0},
      {1010000, 363, 363, 0, 5, 179, 1069, 0},
  };
  for (int i = 0; i < 2; ++i) {
    Machine m(butterfly1(16), faulty(kProbs[i]));
    CentralBarrier bar(m, 15, 16, 5 * kMicrosecond, 40 * kMicrosecond);
    const sim::Time t = barrier_run(m, bar);
    expect_pin(pin_of(m, t, bar.spins()), want[i], kProbs[i]);
  }
}

TEST(FaultRetry, TreeBarrierIsPinned) {
  const Pin want[] = {
      {888300, 680, 680, 0, 5, 48, 1872, 0},
      {1015300, 745, 745, 0, 5, 493, 2892, 0},
  };
  for (int i = 0; i < 2; ++i) {
    Machine m(butterfly1(16), faulty(kProbs[i]));
    TreeBarrier bar(m, first_nodes(16), 4, kMicrosecond, 16 * kMicrosecond);
    const sim::Time t = barrier_run(m, bar);
    expect_pin(pin_of(m, t, bar.local_spins()), want[i], kProbs[i]);
  }
}

// A Uniform System generation of 64 tasks, each touching a scattered shared
// word, then wait_idle.  `spins` holds tasks_run, `extra` tasks_faulted.
TEST(FaultRetry, UniformSystemWaitIdleIsPinned) {
  const Pin want[] = {
      {70112200, 64, 0, 16, 0, 7, 707, 4},
      {70688400, 64, 9, 16, 0, 75, 812, 18},
  };
  for (int i = 0; i < 2; ++i) {
    Machine m(butterfly1(16), faulty(kProbs[i]));
    chrys::Kernel k(m);
    us::UniformSystem us(k);
    const sim::Time t = us.run_main([&] {
      const std::vector<sim::PhysAddr> rows = us.scatter_rows(16, 64);
      us.gen_on_index(0, 64, [&](us::TaskCtx& c) {
        c.m.charge(30 * kMicrosecond);
        (void)c.us.atomic_add(rows[c.arg % 16], 1);
      });
      us.wait_idle();
    });
    expect_pin(pin_of(m, t, us.tasks_run(), us.tasks_faulted()), want[i],
               kProbs[i]);
  }
}

// A 1x8 NET ring: a token makes three laps.  `spins` holds
// bytes_streamed, `extra` elements_faulted.
Pin ring_run(double prob) {
  Machine m(butterfly1(16), faulty(prob));
  chrys::Kernel k(m);
  std::uint64_t streamed = 0, faulted = 0;
  k.create_process(
      0,
      [&] {
        net::MeshOptions opt;
        opt.wrap_cols = true;
        net::Mesh mesh(
            k, 1, 8,
            [](net::Element& e) {
              net::Stream* west = e.in(net::Direction::kWest);
              net::Stream* east = e.out(net::Direction::kEast);
              for (int lap = 0; lap < 3; ++lap) {
                if (e.col() == 0) {
                  east->write_value<std::uint32_t>(1);
                  (void)west->read_value<std::uint32_t>();
                } else {
                  east->write_value(west->read_value<std::uint32_t>() + 1);
                }
              }
            },
            opt);
        mesh.join();
        streamed = mesh.bytes_streamed();
        faulted = mesh.elements_faulted();
      },
      "ring");
  const sim::Time t = m.run();
  EXPECT_FALSE(m.deadlocked());
  return pin_of(m, t, streamed, faulted);
}

TEST(FaultRetry, NetRingIsPinned) {
  const Pin want[] = {
      {35435200, 96, 0, 0, 0, 3, 264, 0},
      {36349800, 96, 0, 0, 0, 19, 295, 0},
  };
  for (int i = 0; i < 2; ++i)
    expect_pin(ring_run(kProbs[i]), want[i], kProbs[i]);
}

// At this rate some stream transfer fails all 6 tries: the fault reaches
// the element body, which the mesh counts as faulted.
TEST(FaultRetry, NetRingRetryExhaustionIsPinned) {
  const Pin got = ring_run(0.7);
  expect_pin(got, {36491000, 16, 0, 0, 0, 18, 154, 8}, 0.7);
  EXPECT_GT(got.extra, 0u);
}

}  // namespace
}  // namespace bfly::sync
