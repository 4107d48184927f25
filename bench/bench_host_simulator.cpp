// HOST — google-benchmark microbenchmarks of the simulator itself.
//
// Everything else in bench/ measures *simulated* Butterfly time; this
// binary measures the host cost of the simulation substrate (events,
// fiber switches, timed references), which bounds how big an experiment
// is practical.  These are host-machine numbers and carry no
// paper-reproduction meaning.
//
// Besides the google-benchmark tables, main() runs a hand-timed pass and
// appends a throughput row to BENCH_host_sim.json (override the path with
// BFLY_HOST_SIM_OUT; see DESIGN.md "Host performance model" for how to
// read it).  The committed file keeps one row per engine generation, so
// the trajectory of the event core survives across PRs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chrysalis/kernel.hpp"
#include "scope/trace_check.hpp"
#include "sim/json.hpp"
#include "sim/machine.hpp"

namespace {

using namespace bfly;

void BM_EngineEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    std::uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i)
      e.post_at(static_cast<sim::Time>(i), [&sink, i] { sink += i; });
    e.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventDispatch);

void BM_FiberSwitchPair(benchmark::State& state) {
  sim::Fiber f(
      [] {
        while (true) sim::Fiber::yield_to_engine();
      },
      64 * 1024);
  for (auto _ : state) f.resume();  // resume + yield = one switch pair
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiberSwitchPair);

sim::MachineConfig timed_ref_config(bool fastpath) {
  sim::MachineConfig cfg = sim::butterfly1(128);
  cfg.host_fastpath = fastpath;
  return cfg;
}

void timed_remote_reference_loop(benchmark::State& state, bool fastpath) {
  for (auto _ : state) {
    sim::Machine m(timed_ref_config(fastpath));
    sim::PhysAddr a = m.alloc(64, 64);
    m.spawn(0, [&] {
      for (int i = 0; i < 500; ++i)
        benchmark::DoNotOptimize(m.read<std::uint32_t>(a));
    });
    m.run();
  }
  state.SetItemsProcessed(state.iterations() * 500);
}

void BM_TimedRemoteReference(benchmark::State& state) {
  timed_remote_reference_loop(state, /*fastpath=*/true);
}
BENCHMARK(BM_TimedRemoteReference);

/// The same workload through the always-yield slow path: the gap between
/// this and BM_TimedRemoteReference is what the charge() fast path buys.
void BM_TimedRemoteReferenceSlowPath(benchmark::State& state) {
  timed_remote_reference_loop(state, /*fastpath=*/false);
}
BENCHMARK(BM_TimedRemoteReferenceSlowPath);

void BM_ChrysalisProcessCreation(benchmark::State& state) {
  for (auto _ : state) {
    sim::Machine m(sim::butterfly1(16));
    chrys::Kernel k(m);
    k.create_process(0, [&] {
      for (int i = 0; i < 20; ++i) k.create_process(i % 16, [] {});
    });
    m.run();
  }
  state.SetItemsProcessed(state.iterations() * 21);
}
BENCHMARK(BM_ChrysalisProcessCreation);

void BM_DualQueueRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Machine m(sim::butterfly1(4));
    chrys::Kernel k(m);
    chrys::Oid q1 = chrys::kNoObject, q2 = chrys::kNoObject;
    k.create_process(0, [&] {
      q1 = k.make_dual_queue();
      for (int i = 0; i < 50; ++i) k.dq_enqueue(q2, k.dq_dequeue(q1));
    });
    k.create_process(1, [&] {
      q2 = k.make_dual_queue();
      for (int i = 0; i < 50; ++i) {
        k.dq_enqueue(q1, i);
        benchmark::DoNotOptimize(k.dq_dequeue(q2));
      }
    });
    m.run();
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_DualQueueRoundTrip);

// --- BENCH_host_sim.json row ---------------------------------------------
//
// The hand-timed pass below measures the three primitive rates with
// std::chrono (google-benchmark's own numbers stay on stdout) and appends
// one substrate row (event dispatch and fiber switch rates, which do not
// depend on the fast path) plus one timed-reference row per fast-path
// setting.  "Simulated events" counts dispatched engine events *plus*
// switch-free fast-path charges: a warped charge does the work an event
// used to, so the denominator stays comparable across engine generations.

double host_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct HostRow {
  std::string label;
  bool fastpath = false;
  double timed_refs_per_sec = 0;
  double host_ns_per_event = 0;
};

double measure_event_dispatch() {
  constexpr int kEvents = 200000;
  sim::Engine e;
  std::uint64_t sink = 0;
  for (int i = 0; i < kEvents; ++i)
    e.post_at(static_cast<sim::Time>(i), [&sink, i] { sink += i; });
  const auto t0 = std::chrono::steady_clock::now();
  e.run();
  const double dt = host_seconds_since(t0);
  benchmark::DoNotOptimize(sink);
  return kEvents / dt;
}

double measure_fiber_switches() {
  constexpr int kPairs = 200000;
  sim::Fiber f(
      [] {
        while (true) sim::Fiber::yield_to_engine();
      },
      64 * 1024);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kPairs; ++i) f.resume();
  return kPairs / host_seconds_since(t0);
}

HostRow measure_timed_refs(bool fastpath) {
  constexpr int kRefs = 200000;
  HostRow row;
  row.label = fastpath ? "fastpath-on" : "fastpath-off";
  row.fastpath = fastpath;
  sim::Machine m(timed_ref_config(fastpath));
  sim::PhysAddr a = m.alloc(64, 64);
  m.spawn(0, [&] {
    for (int i = 0; i < kRefs; ++i)
      benchmark::DoNotOptimize(m.read<std::uint32_t>(a));
  });
  const auto t0 = std::chrono::steady_clock::now();
  m.run();
  const double dt = host_seconds_since(t0);
  const sim::HostPerf hp = m.host_perf();
  const double sim_events =
      static_cast<double>(hp.events_dispatched + hp.fastpath_charges);
  row.timed_refs_per_sec = kRefs / dt;
  row.host_ns_per_event = dt * 1e9 / sim_events;
  return row;
}

/// Re-serialize a parsed JsonValue (keeps prior runs byte-meaningful when
/// the file is rewritten with a new row appended).
void emit_value(const scope::JsonValue& v, sim::json::Writer& w) {
  using Kind = scope::JsonValue::Kind;
  switch (v.kind) {
    case Kind::kNull:
      w.raw("null");
      break;
    case Kind::kBool:
      w.value(v.b);
      break;
    case Kind::kNumber:
      w.value(v.num);
      break;
    case Kind::kString:
      w.value(v.str);
      break;
    case Kind::kArray:
      w.begin_array();
      for (const auto& e : v.arr) emit_value(e, w);
      w.end_array();
      break;
    case Kind::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.obj) {
        w.key(k);
        emit_value(e, w);
      }
      w.end_object();
      break;
  }
}

void emit_substrate_row(double events_per_sec, double switches_per_sec,
                        sim::json::Writer& w) {
  w.begin_object()
      .kv("label", "substrate")
      .kv("events_per_sec", events_per_sec)
      .kv("fiber_switches_per_sec", switches_per_sec)
      .end_object();
}

void emit_row(const HostRow& r, double speedup, sim::json::Writer& w) {
  w.begin_object()
      .kv("label", r.label)
      .kv("fastpath", r.fastpath)
      .kv("timed_refs_per_sec", r.timed_refs_per_sec)
      .kv("host_ns_per_event", r.host_ns_per_event);
  if (speedup > 0) w.kv("speedup_vs_slowpath", speedup);
  w.end_object();
}

void append_json_rows() {
  const char* out_env = std::getenv("BFLY_HOST_SIM_OUT");
  const std::string path = out_env != nullptr ? out_env : "BENCH_host_sim.json";

  const double events_per_sec = measure_event_dispatch();
  const double switches_per_sec = measure_fiber_switches();
  HostRow on = measure_timed_refs(true);
  HostRow off = measure_timed_refs(false);
  const double speedup = on.timed_refs_per_sec / off.timed_refs_per_sec;

  // Carry forward any rows already in the file (the cross-PR trajectory).
  scope::JsonValue prior;
  bool have_prior = false;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      std::string err;
      have_prior = scope::json_parse(ss.str(), &prior, &err);
      if (!have_prior)
        std::fprintf(stderr, "bench_host_simulator: ignoring unparsable %s: %s\n",
                     path.c_str(), err.c_str());
    }
  }

  sim::json::Writer w;
  w.begin_object()
      .kv("bench", "host_sim")
      .kv("note",
          "host-machine throughput of the simulation substrate; no "
          "paper-reproduction meaning")
      .key("runs")
      .begin_array();
  if (have_prior) {
    const scope::JsonValue* runs = prior.find("runs");
    if (runs != nullptr && runs->kind == scope::JsonValue::Kind::kArray)
      for (const auto& r : runs->arr) emit_value(r, w);
  }
  emit_substrate_row(events_per_sec, switches_per_sec, w);
  emit_row(off, 0, w);
  emit_row(on, speedup, w);
  w.end_array().end_object();

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_host_simulator: cannot write %s\n",
                 path.c_str());
    return;
  }
  out << w.str() << '\n';
  std::printf(
      "\nBENCH_host_sim row -> %s\n"
      "  events/sec           %.3g\n"
      "  fiber switches/sec   %.3g\n"
      "  timed refs/sec       %.3g (fastpath on) / %.3g (off)\n"
      "  host-ns per sim event %.1f (on) / %.1f (off)\n"
      "  fastpath speedup     %.1fx\n",
      path.c_str(), events_per_sec, switches_per_sec, on.timed_refs_per_sec,
      off.timed_refs_per_sec, on.host_ns_per_event, off.host_ns_per_event,
      speedup);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  append_json_rows();
  return 0;
}
