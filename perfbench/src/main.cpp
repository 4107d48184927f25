// perfbench — the repository's one repeatable benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source-id <id>] [--out <path>]
//
// --trace 0 runs untraced passes of the workload for --seconds and reports
// the end-to-end metrics: medians over the passes of host seconds of the
// measured phase and of set-up, plus peak RSS.  --trace 1 runs the layer
// ladder, then untraced and traced passes alternately, and reports every
// per-layer metric (each with the end-to-end metric and workload it should
// move), the workload's simulated outcomes, and the tracing overhead.
//
// Every pass checks every answer and folds all simulated output into a
// digest (sim_digest); the digest must repeat across all passes of a run,
// traced and untraced alike.  The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  A failed check prints
// correct=false and exits 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "sim/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// --- build and environment hygiene -----------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// Environment switches the simulator or its benches read; any of them would
// silently change what is measured.
constexpr const char* kForbiddenEnv[] = {"BFLY_FAST", "BFLY_NO_FASTPATH",
                                         "BFLY_HOST_SHARDS",
                                         "BFLY_HOST_THREADS", "BFLY_TRACE"};

// --- metric catalogue ------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
  std::string target;  // end-to-end metric and workload it should move
};

const std::vector<MetricDef>& end_to_end() {
  static const std::vector<MetricDef> defs{
      {"host_wall_s", "s",
       "host seconds of a pass's measured phase (sum of part medians)"},
      {"setup_s", "s", "host seconds of a pass's set-up (sum of part medians)"},
      {"peak_rss_mb", "MB", "peak resident set after the first pass"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d{
        {"sim.events", "count", "host_wall_s on serve_open_loop, sync_1k"},
        {"sim.fiber_resumes", "count",
         "host_wall_s on serve_open_loop, sync_1k"},
        {"sim.host_ns_per_event", "ns",
         "host_wall_s on serve_open_loop, sync_1k"},
        {"sim.fastpath_share", "share",
         "host_wall_s on gauss_fig5; must not move on serve_faults"},
        {"sim.host_ns_per_ref", "ns", "host_wall_s on gauss_fig5"},
        {"sim.refs_local", "count", "sim_elapsed_s on gauss_fig5, sync_1k"},
        {"sim.refs_remote", "count", "sim_elapsed_s on gauss_fig5, sync_1k"},
        {"sim.block_words", "count", "sim_elapsed_s on gauss_fig5, sync_1k"},
        {"sim.queue_share", "share", "sim_elapsed_s on gauss_fig5, sync_1k"},
        {"switch.combined_adds", "count", "sim_elapsed_s on sync_1k"},
        {"parsim.forfeit", "count", "host_wall_s on gauss_fig5, sync_1k"},
        {"parsim.windows", "count", "host_wall_s on gauss_fig5, sync_1k"},
        {"parsim.barrier_wait_share", "share",
         "host_wall_s on gauss_fig5, sync_1k"},
        {"chrys.dispatch_steps", "count",
         "sim_p999_ms, host_wall_s on serve_open_loop"},
        {"chrys.dq_wait_ms", "sim_ms",
         "sim_p999_ms, host_wall_s on serve_open_loop"},
        {"chrys.event_wait_ms", "sim_ms",
         "sim_p999_ms, host_wall_s on serve_open_loop"},
        {"us.tasks_run", "count", "sim_elapsed_s, host_wall_s on gauss_fig5"},
        {"us.task_ms", "sim_ms", "sim_elapsed_s, host_wall_s on gauss_fig5"},
        {"us.wait_idle_ms", "sim_ms",
         "sim_elapsed_s, host_wall_s on gauss_fig5"},
        {"smp.messages", "count", "sim_elapsed_s, host_wall_s on gauss_fig5"},
        {"smp.recv_wait_ms", "sim_ms",
         "sim_elapsed_s, host_wall_s on gauss_fig5"},
        {"bridge.disk_ops", "count", "sim_p999_ms on serve_open_loop"},
        {"bridge.server_ms", "sim_ms", "sim_p999_ms on serve_open_loop"},
        {"bridge.server_faults", "count",
         "defect count: server processes lost before shutdown (serve)"},
        {"serve.read_p99_ms", "sim_ms", "sim_p99_ms.r1800 on serve_open_loop"},
        {"serve.write_p99_ms", "sim_ms", "sim_p99_ms.r1800 on serve_open_loop"},
        {"serve.hedges", "count", "sim_p999_ms, goodput_per_s on serve_faults"},
        {"serve.hedge_win_ratio", "share",
         "sim_p999_ms, goodput_per_s on serve_faults"},
        {"serve.retries", "count",
         "sim_p999_ms, goodput_per_s on serve_faults"},
        {"serve.sheds", "count", "sim_p999_ms, goodput_per_s on serve_faults"},
        {"serve.timeouts", "count",
         "sim_p999_ms, goodput_per_s on serve_faults"},
        {"serve.rereplications", "count",
         "sim_p999_ms, goodput_per_s on serve_faults"},
        {"serve.stale_readbacks", "count",
         "acked writes a final read-any misses (serve workloads)"},
        {"rescue.detect_ms", "sim_ms", "sim_p999_ms on serve_faults"},
        {"rescue.suspects_declared", "count", "sim_p999_ms on serve_faults"},
        {"rescue.false_suspects", "count",
         "sim_p999_ms on serve_faults; rises with load on serve_open_loop"},
        {"sync.spins_per_acquire", "ratio",
         "sim_elapsed_s, host_wall_s on sync_1k"},
        {"sync.barrier_episodes", "count",
         "sim_elapsed_s, host_wall_s on sync_1k"},
        {"loadgen.requests", "count",
         "benchmark health on the serve workloads"},
        {"loadgen.max_lag_ms", "sim_ms",
         "benchmark health on the serve workloads"},
        // Simulated outcomes: the reproduction's output, exact for a seed.
        {"sim_elapsed_s", "sim_s", "outcome of gauss_fig5, sync_1k"},
        {"sim_p50_ms", "sim_ms",
         "outcome of serve_open_loop (1200/s), serve_faults"},
        {"sim_p999_ms", "sim_ms",
         "outcome of serve_open_loop (1200/s), serve_faults"},
        {"sim_p99_ms.r1800", "sim_ms", "outcome of serve_open_loop"},
        {"max_rate_under_slo", "1/sim_s",
         "outcome of serve_open_loop (higher)"},
        {"goodput_per_s", "1/sim_s",
         "outcome of serve_open_loop (2400/s), serve_faults (higher)"},
        {"failed_share", "share", "outcome of every workload"},
        {"trace.overhead_s", "s", "traced minus untraced host_wall_s"},
    };
    for (const std::string& cat : span_categories())
      d.push_back({"span.self_ms." + cat, "sim_ms",
                   "where simulated time goes, by layer"});
    for (const std::string& r : ladder_rungs()) {
      d.push_back({"ladder." + r + ".host_ns", "ns",
                   "host_wall_s on the workload using that layer most"});
      d.push_back({"ladder." + r + ".sim_us", "sim_us",
                   "simulated cost of one call (exact)"});
    }
    return d;
  }();
  return defs;
}

// --- command line ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string source_id = "unknown";
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--source-id <id>] "
               "[--out <path>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("--seed takes an integer");
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(a.seconds > 0))
        usage("--seconds takes a positive number");
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] - '0';
    } else if (k == "--source-id") {
      a.source_id = v;
    } else if (k == "--out") {
      a.out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

// --- running ---------------------------------------------------------------

struct Run {
  std::vector<PassResult> plain;   // untraced passes
  std::vector<PassResult> traced;  // traced passes (--trace 1 only)
  std::vector<std::string> errors;
  std::vector<RungResult> ladder;
  double peak_rss_mb = 0;  // after the first pass: what one execution costs
};

std::vector<std::vector<double>> parts(const std::vector<PassResult>& ps,
                                       std::vector<double> PassResult::*f) {
  std::vector<std::vector<double>> v;
  for (const PassResult& p : ps) v.push_back(p.*f);
  return v;
}

double total(const std::vector<double>& v) {
  double t = 0;
  for (const double x : v) t += x;
  return t;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double layer(const MetricSet& ms, const char* name) {
  return ms.has(name) ? ms.at(name).value : 0.0;
}

// The per-layer document: counters from the first untraced pass (host-
// engine counters need the fast path an attached sink forfeits), span sums
// from the first traced pass, ratios derived from both, and the ladder.
MetricSet per_layer_metrics(const Run& run) {
  const PassResult& u = run.plain.front();
  const PassResult& t = run.traced.front();
  MetricSet raw;
  for (const auto& [n, m] : u.layers.all()) raw.set(n, m.value, m.unit);
  for (const auto& [n, m] : t.layers.all())
    if (!raw.has(n)) raw.set(n, m.value, m.unit);
  for (const auto& [n, m] : u.outcome.all()) raw.set(n, m.value, m.unit);

  const double wall = sum_of_medians(parts(run.plain, &PassResult::wall_s));
  const auto v = [&](const char* name) { return layer(raw, name); };
  const double fast = v("sim.fastpath_charges");
  raw.set("sim.host_ns_per_event", ratio(wall * 1e9, v("sim.events")), "ns");
  raw.set("sim.fastpath_share", ratio(fast, fast + v("sim.fiber_resumes")),
          "share");
  raw.set("sim.host_ns_per_ref",
          ratio(wall * 1e9, v("sim.refs_local") + v("sim.refs_remote")), "ns");
  raw.set("sim.queue_share", ratio(v("sim.queue_ns"), v("sim.stall_ns")),
          "share");
  raw.set("parsim.barrier_wait_share",
          ratio(v("parsim.barrier_wait_ns"), v("parsim.run_wall_ns")), "share");
  raw.set("serve.hedge_win_ratio",
          ratio(v("serve.hedge_wins"), v("serve.hedges")), "share");
  raw.set("sync.spins_per_acquire",
          ratio(v("sync.lock_spins"), v("sync.lock_acquisitions")), "ratio");
  raw.set("trace.overhead_s",
          sum_of_medians(parts(run.traced, &PassResult::wall_s)) - wall, "s");
  for (const RungResult& r : run.ladder) {
    raw.set("ladder." + r.name + ".host_ns", r.host_ns_per_op, "ns");
    raw.set("ladder." + r.name + ".sim_us", r.sim_us_per_op, "sim_us");
  }
  // Every declared metric, zero where the workload does not use the layer.
  MetricSet out;
  for (const MetricDef& d : per_layer()) {
    if (!raw.has(d.name)) {
      out.set(d.name, 0.0, d.unit);
      continue;
    }
    const Metric& m = raw.at(d.name);
    if (m.unit != d.unit)
      throw std::logic_error("unit mismatch for " + d.name);
    out.set(d.name, m.value, d.unit);
  }
  return out;
}

MetricSet end_to_end_metrics(const Run& run) {
  MetricSet out;
  out.set("host_wall_s",
          sum_of_medians(parts(run.plain, &PassResult::wall_s)), "s");
  out.set("setup_s", sum_of_medians(parts(run.plain, &PassResult::setup_s)),
          "s");
  out.set("peak_rss_mb", run.peak_rss_mb, "MB");
  return out;
}

std::string report_json(const Args& a, const Run& run, const MetricSet& ms,
                        const std::vector<MetricDef>& defs, bool digest_stable,
                        bool correct) {
  namespace json = bfly::sim::json;
  const PassResult& first = run.plain.front();
  json::Writer w;
  w.begin_object();
  w.kv("workload", a.workload).kv("seed", a.seed).kv("seconds", a.seconds);
  w.kv("trace", a.trace).kv("correct", correct);
  w.key("envelope").begin_object();
  w.kv("source_id", a.source_id)
      .kv("build_type", PERFBENCH_BUILD_TYPE)
      .kv("compiler", PERFBENCH_COMPILER)
      .kv("optimized", kOptimized)
      .kv("sanitized", kSanitized)
      .kv("nproc", std::thread::hardware_concurrency())
      .kv("host_threads", std::uint32_t{1});
  w.key("machines").begin_array();
  for (const std::string& m : first.machines) w.value(m);
  w.end_array().end_object();
  w.kv("sim_digest", hex64(first.digest.value()))
      .kv("sim_digest_stable", digest_stable)
      .kv("passes_untraced", static_cast<std::uint64_t>(run.plain.size()))
      .kv("passes_traced", static_cast<std::uint64_t>(run.traced.size()));
  w.key("pass_wall_s").begin_array();
  for (const PassResult& p : run.plain) w.value(total(p.wall_s));
  w.end_array();
  w.key("pass_setup_s").begin_array();
  for (const PassResult& p : run.plain) w.value(total(p.setup_s));
  w.end_array();
  w.key("metrics").begin_object();
  for (const MetricDef& d : defs) {
    const Metric& m = ms.at(d.name);
    w.key(d.name).begin_object();
    w.kv("value", m.value).kv("unit", m.unit).kv("moves", d.target);
    w.end_object();
  }
  w.end_object();
  w.key("outcome").begin_object();
  for (const auto& [n, m] : first.outcome.all()) {
    w.key(n).begin_object();
    w.kv("value", m.value).kv("unit", m.unit).end_object();
  }
  w.end_object();
  w.key("notes").begin_array();
  for (const std::string& n : first.notes) w.value(n);
  w.end_array();
  w.key("errors").begin_array();
  for (const std::string& e : run.errors) w.value(e);
  w.end_array();
  w.end_object();
  return w.take();
}

int run_main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  for (const char* e : kForbiddenEnv) {
    const char* v = std::getenv(e);
    if (v != nullptr && v[0] != '\0') {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", e);
      return 2;
    }
  }
  if (kSanitized || !kOptimized) {
    std::fprintf(stderr,
                 "perfbench: refusing a sanitizer or unoptimized build\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : workloads())
    if (a.workload == w.name) wl = &w;
  if (wl == nullptr) usage(("unknown workload " + a.workload).c_str());

  Run run;
  const Clock::time_point t0 = Clock::now();
  if (a.trace == 1) {
    run.ladder = run_ladder(3);
    // Alternate untraced and traced passes so host drift hits both alike.
    do {
      run.plain.push_back(wl->pass(PassContext{a.seed, false}));
      run.traced.push_back(wl->pass(PassContext{a.seed, true}));
    } while (seconds_since(t0) < a.seconds);
  } else {
    // At least three passes: the digest must repeat, and the reported
    // value is a median.
    do {
      run.plain.push_back(wl->pass(PassContext{a.seed, false}));
      if (run.plain.size() == 1) run.peak_rss_mb = peak_rss_mb();
    } while (seconds_since(t0) < a.seconds || run.plain.size() < 3);
  }

  // Correctness: every check of every pass, and one digest for all passes.
  std::uint64_t attempted = 0, failed = 0;
  const std::uint64_t digest = run.plain.front().digest.value();
  bool digest_stable = true;
  for (const auto* set : {&run.plain, &run.traced}) {
    for (const PassResult& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
      for (const std::string& e : p.check_failures) run.errors.push_back(e);
      if (p.digest.value() != digest) digest_stable = false;
    }
  }
  if (!digest_stable) {
    ++failed;
    run.errors.push_back(
        "sim_digest differs between passes: simulated output is not "
        "deterministic, or tracing changed it");
  }
  const bool correct = run.errors.empty();

  const std::vector<MetricDef>& defs =
      a.trace == 1 ? per_layer() : end_to_end();
  const MetricSet ms =
      a.trace == 1 ? per_layer_metrics(run) : end_to_end_metrics(run);

  // Human-readable summary, then the full report, then the result line.
  std::printf("perfbench %s seed=%llu trace=%d passes=%zu+%zu "
              "sim_digest=%s%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace, run.plain.size(), run.traced.size(),
              hex64(digest).c_str(), digest_stable ? "" : " (UNSTABLE)");
  for (const std::string& n : run.plain.front().notes)
    std::printf("  %s\n", n.c_str());
  for (const MetricDef& d : defs)
    std::printf("  %-28s %14.6g %-8s  -> %s\n", d.name.c_str(),
                ms.at(d.name).value, d.unit.c_str(), d.target.c_str());
  for (const std::string& e : run.errors)
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  const std::string report =
      report_json(a, run, ms, defs, digest_stable, correct);
  std::printf("%s\n", report.c_str());
  if (!a.out.empty()) {
    if (std::FILE* f = std::fopen(a.out.c_str(), "w")) {
      std::fprintf(f, "%s\n", report.c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n", a.out.c_str());
    }
  }

  std::vector<std::string> names;
  for (const MetricDef& d : defs) names.push_back(d.name);
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(ms, names).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
