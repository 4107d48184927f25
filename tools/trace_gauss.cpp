// trace_gauss [trace.json] [metrics.json] — the traced Gauss smoke.
//
// Runs the FIG5 Gaussian elimination (Uniform System version) on an 8-node
// Butterfly-I with all three tools attached to the one run — a
// scope::Tracer, the analyze race detector and the moviola wait-graph
// Detector — writes the Chrome trace (open it in Perfetto /
// chrome://tracing) and the bench-style metrics JSON, and prints the
// critical-path / Amdahl report.  Self-validates the exported trace and
// fails on any race, lock-order cycle or stuck fiber, so ci/check.sh can
// gate on the exit status alone.

#include <cstdio>
#include <fstream>
#include <string>

#include "analyze/analyze.hpp"
#include "apps/gauss.hpp"
#include "moviola/wait_graph.hpp"
#include "scope/scope.hpp"
#include "scope/trace_check.hpp"
#include "sim/machine.hpp"

namespace {

bool write_file(const char* path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "trace_gauss: cannot write %s\n", path);
    return false;
  }
  out << text;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bfly;
  const char* trace_path = argc > 1 ? argv[1] : "gauss_trace.json";
  const char* metrics_path = argc > 2 ? argv[2] : nullptr;

  apps::GaussConfig cfg;
  cfg.n = 64;
  cfg.processors = 8;

  sim::Machine m(sim::butterfly1(8));
  scope::Tracer tracer(m);
  analyze::Analyzer analyzer(m);
  moviola::Detector detector(m);
  const apps::GaussResult r = apps::gauss_us(m, cfg);
  const double err = apps::gauss_error(r, cfg.n, cfg.seed);
  std::printf("gauss US: N=%u on 8 nodes, elapsed %s, max err %.3e\n\n",
              cfg.n, sim::format_duration(r.elapsed).c_str(), err);
  std::printf("%s\n", tracer.report().c_str());

  const std::string trace = tracer.chrome_trace();
  if (!write_file(trace_path, trace)) return 1;
  std::printf("wrote %s (%zu bytes, %llu spans, %llu instants)\n",
              trace_path, trace.size(),
              static_cast<unsigned long long>(tracer.spans_begun()),
              static_cast<unsigned long long>(tracer.instants_recorded()));
  if (metrics_path != nullptr) {
    if (!write_file(metrics_path, tracer.metrics_json())) return 1;
    std::printf("wrote %s\n", metrics_path);
  }

  if (err > 1e-6) {
    std::fprintf(stderr, "trace_gauss: solution error too large\n");
    return 1;
  }
  std::vector<std::string> errors;
  scope::TraceCheckStats stats;
  if (!scope::validate_chrome_trace(trace, &errors, &stats)) {
    for (const std::string& e : errors)
      std::fprintf(stderr, "trace_gauss: %s\n", e.c_str());
    return 1;
  }
  const scope::CriticalPathReport cp = tracer.critical_path();
  if (cp.tasks == 0 || cp.serial_fraction <= 0.0 ||
      cp.serial_fraction > 1.0) {
    std::fprintf(stderr, "trace_gauss: implausible critical-path report\n");
    return 1;
  }
  const std::size_t cycles = analyzer.lock_cycles().size();
  const std::size_t stuck = detector.analyze().size();
  if (analyzer.races_total() != 0 || cycles != 0 || stuck != 0) {
    std::fprintf(stderr, "%s\n%s\n", analyzer.report().c_str(),
                 detector.report().c_str());
    std::fprintf(stderr, "trace_gauss: %llu races, %zu lock cycles, %zu "
                 "stuck reports\n",
                 static_cast<unsigned long long>(analyzer.races_total()),
                 cycles, stuck);
    return 1;
  }
  std::printf("self-check: %zu events validate clean; no races, lock "
              "cycles or stuck fibers\n", stats.events);
  return 0;
}
