// The probe bus: every tool is a sim::Probe on one subscriber list, so any
// mix of tools — including two of the same kind — watches one run without
// perturbing it, and any attached probe forfeits the charge() fast path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "chrysalis/kernel.hpp"
#include "moviola/wait_graph.hpp"
#include "replay/instant_replay.hpp"
#include "scope/scope.hpp"
#include "sim/machine.hpp"

namespace bfly::sim {
namespace {

using replay::AccessEntry;
using replay::Log;
using replay::Mode;
using replay::Monitor;

/// What each of the probed run's two tracers recorded.
struct TracerView {
  std::uint64_t spans = 0;
  std::uint64_t instants = 0;
  std::uint64_t refs = 0;
  std::string chrome_trace;
};

struct MonitoredRun {
  std::vector<std::uint32_t> order;
  Log log;
  Time elapsed = 0;
  TracerView tracer[2];
  std::uint64_t races = 0;
  std::size_t stuck = 0;
};

enum class Tools { kNone, kAnalyzer, kAll };

// Instant-Replay-monitored writers that report completion through a dual
// queue: kernel spans and instants, dual-queue waits, spin locks and plain
// references all reach the probes.  kAll attaches two Tracers, an Analyzer
// and a Detector, interleaved on one machine.
MonitoredRun run_monitored(Tools tools) {
  Machine m(butterfly1(8));
  chrys::Kernel k(m);
  std::unique_ptr<scope::Tracer> t1, t2;
  std::unique_ptr<analyze::Analyzer> ana;
  std::unique_ptr<moviola::Detector> det;
  if (tools == Tools::kAll) t1 = std::make_unique<scope::Tracer>(m);
  if (tools != Tools::kNone) ana = std::make_unique<analyze::Analyzer>(m);
  if (tools == Tools::kAll) {
    t2 = std::make_unique<scope::Tracer>(m);
    det = std::make_unique<moviola::Detector>(m, &k);
  }
  constexpr std::uint32_t kActors = 4;
  constexpr std::uint32_t kRounds = 5;
  Monitor mon(k, kActors);
  MonitoredRun out;
  const std::uint32_t obj = mon.register_object(0, "counter");
  mon.set_mode(Mode::kRecord);
  const chrys::Oid done = k.make_dual_queue();

  Rng jitter(4242);
  std::vector<Time> delays;
  for (std::uint32_t i = 0; i < kActors * kRounds; ++i)
    delays.push_back((1 + jitter.below(40)) * 100 * kMicrosecond);

  for (std::uint32_t a = 0; a < kActors; ++a) {
    k.create_process(a % m.nodes(), [&, a] {
      for (std::uint32_t r = 0; r < kRounds; ++r) {
        k.delay(delays[a * kRounds + r]);
        mon.begin_write(a, obj);
        out.order.push_back(a);
        m.charge(500 * kMicrosecond);
        mon.end_write(a, obj);
      }
      k.dq_enqueue(done, a);
    });
  }
  k.create_process(7, [&] {
    for (std::uint32_t a = 0; a < kActors; ++a) (void)k.dq_dequeue(done);
  });
  out.elapsed = m.run();
  out.log = mon.take_log();
  if (ana) out.races = ana->races_total();
  if (tools == Tools::kAll) {
    const scope::Tracer* tracers[2] = {t1.get(), t2.get()};
    for (int i = 0; i < 2; ++i) {
      out.tracer[i] = TracerView{
          tracers[i]->spans_begun(), tracers[i]->instants_recorded(),
          tracers[i]->references_seen(), tracers[i]->chrome_trace()};
    }
    out.stuck = det->analyze().size();
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

TEST(Probe, TwoTracersAnalyzerAndDetectorShareOneRun) {
  const MonitoredRun bare = run_monitored(Tools::kNone);
  const MonitoredRun alone = run_monitored(Tools::kAnalyzer);
  const MonitoredRun probed = run_monitored(Tools::kAll);

  EXPECT_EQ(probed.order, bare.order);
  EXPECT_EQ(probed.elapsed, bare.elapsed);
  expect_logs_identical(probed.log, bare.log);

  // Both tracers saw the whole run, not just the last one attached.
  const TracerView& a = probed.tracer[0];
  const TracerView& b = probed.tracer[1];
  EXPECT_GT(a.spans, 0u);
  EXPECT_GT(a.instants, 0u);
  EXPECT_GT(a.refs, 0u);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.instants, b.instants);
  EXPECT_EQ(a.refs, b.refs);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
  // The monitor's spin lock orders every access, and the Analyzer sees
  // accesses when their data moves, so it finds no race alone or in
  // company; and the run finishes.
  EXPECT_EQ(alone.races, 0u);
  EXPECT_EQ(probed.races, 0u);
  EXPECT_EQ(probed.stuck, 0u);
}

MachineConfig fast_cfg() {
  MachineConfig c = butterfly1(4);
  c.host_fastpath = true;
  return c;
}

// Run one fiber's ten charges; returns the fast-path charges they took.
std::uint64_t fast_charges_of_one_run(Machine& m) {
  const std::uint64_t before = m.host_perf().fastpath_charges;
  m.spawn(0, [&m] {
    for (int i = 0; i < 10; ++i) m.charge(10);
  });
  m.run();
  return m.host_perf().fastpath_charges - before;
}

TEST(Probe, AnyAttachedProbeForfeitsTheFastPathUntilDetached) {
  Machine m(fast_cfg());
  ASSERT_EQ(fast_charges_of_one_run(m), 10u);
  {
    Probe bare;
    m.attach(&bare);
    EXPECT_EQ(fast_charges_of_one_run(m), 0u);
    m.detach(&bare);
  }
  EXPECT_EQ(fast_charges_of_one_run(m), 10u);
  {
    scope::Tracer t(m);
    EXPECT_EQ(fast_charges_of_one_run(m), 0u);
  }
  EXPECT_EQ(fast_charges_of_one_run(m), 10u);
  {
    analyze::Analyzer a(m);
    EXPECT_EQ(fast_charges_of_one_run(m), 0u);
  }
  EXPECT_EQ(fast_charges_of_one_run(m), 10u);
  {
    moviola::Detector d(m);
    EXPECT_EQ(fast_charges_of_one_run(m), 0u);
  }
  EXPECT_EQ(fast_charges_of_one_run(m), 10u);
  {
    // The set_trace_sink slot attaches and detaches beside other probes.
    Probe sink, other;
    m.attach(&other);
    m.set_trace_sink(&sink);
    EXPECT_EQ(m.trace_sink(), &sink);
    m.detach(&other);
    EXPECT_EQ(fast_charges_of_one_run(m), 0u);
    m.set_trace_sink(nullptr);
    EXPECT_EQ(m.trace_sink(), nullptr);
  }
  EXPECT_EQ(fast_charges_of_one_run(m), 10u);
}

struct CountingProbe : Probe {
  int releases = 0;
  void on_release(Fiber*, std::uint64_t) override { ++releases; }
};

TEST(Probe, ProbeDetachingItselfInAHookLeavesTheOthersReceiving) {
  Machine m(fast_cfg());
  struct Quitter : CountingProbe {
    Machine* m = nullptr;
    void on_release(Fiber* f, std::uint64_t c) override {
      CountingProbe::on_release(f, c);
      m->detach(this);
    }
  };
  CountingProbe before, next, last;
  Quitter quitter;
  quitter.m = &m;
  m.attach(&before);
  m.attach(&quitter);
  m.attach(&next);
  m.attach(&last);
  for (int i = 0; i < 3; ++i) m.observe_release(1);
  EXPECT_EQ(before.releases, 3);
  EXPECT_EQ(quitter.releases, 1);
  EXPECT_EQ(next.releases, 3);
  EXPECT_EQ(last.releases, 3);
  // The vacated slot is gone once dispatch ends: detaching the rest gives
  // the fast path back.
  m.detach(&before);
  m.detach(&next);
  m.detach(&last);
  EXPECT_EQ(fast_charges_of_one_run(m), 10u);
}

TEST(Probe, ProbeAttachedInAHookStartsWithTheNextHook) {
  Machine m(fast_cfg());
  CountingProbe late;
  struct Recruiter : Probe {
    Machine* m = nullptr;
    Probe* recruit = nullptr;
    void on_release(Fiber*, std::uint64_t) override {
      if (recruit != nullptr) m->attach(recruit);
      recruit = nullptr;
    }
  };
  Recruiter r;
  r.m = &m;
  r.recruit = &late;
  m.attach(&r);
  m.observe_release(1);
  EXPECT_EQ(late.releases, 0);
  m.observe_release(1);
  EXPECT_EQ(late.releases, 1);
  m.detach(&late);
  m.detach(&r);
}

TEST(Probe, HookChargesCountAChargingProbeAmongOthers) {
  Machine m(fast_cfg());
  struct Charger : Probe {
    Machine* m = nullptr;
    void on_release(Fiber* f, std::uint64_t) override {
      if (f != nullptr) m->charge(100);
    }
  };
  CountingProbe first, last;
  scope::Tracer tracer(m);
  Charger charger;
  charger.m = &m;
  m.attach(&first);
  m.attach(&charger);
  m.attach(&last);
  m.spawn(0, [&m] {
    m.observe_release(1);
    m.observe_release(2);
  });
  m.run();
  EXPECT_EQ(m.hook_charges(), 2u);
  EXPECT_EQ(first.releases, 2);
  EXPECT_EQ(last.releases, 2);
  m.detach(&first);
  m.detach(&charger);
  m.detach(&last);
}

}  // namespace
}  // namespace bfly::sim
