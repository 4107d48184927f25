// The perfbench workloads.  Each pass builds its inputs from the seed, sets
// up fresh machines, runs the measured phase, checks every answer, and
// reports host seconds for set-up and the measured phase separately.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bridge/bridge.hpp"
#include "layers.hpp"

namespace perfbench {

struct PassContext {
  std::uint64_t seed = 1;
  bool spans = false;  ///< attach a LayerSink to every machine (traced pass)
};

struct Workload {
  const char* name;
  PassResult (*pass)(const PassContext&);
};

/// Every workload, in BENCHMARK.json order (which also says why each was
/// chosen).
const std::vector<Workload>& workloads();

PassResult gauss_fig5_pass(const PassContext& ctx);
PassResult serve_open_loop_pass(const PassContext& ctx);
PassResult serve_faults_pass(const PassContext& ctx);
PassResult sync_1k_pass(const PassContext& ctx);

/// Serving-class disks (as bench_tserving): a 2 ms seek plus a 1 ms block
/// transfer keeps one server near 3 ms per request, so the 8-server
/// cluster saturates around 2.2K ops/s with the 90/10 mix.
bfly::bridge::DiskParams serving_disk();

/// Derive an independent 64-bit stream seed from the run seed and a label
/// (splitmix over both), so each input stream moves with --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t label);

// --- layer ladder ------------------------------------------------------------

struct RungResult {
  std::string name;
  double host_ns_per_op = 0;
  double sim_us_per_op = 0;
};

/// One single-fiber loop of calls into one public function per rung, from
/// the engine up to the serving layer.  Rung self cost = value minus the
/// rung below.  Simulated µs/op is exact; host ns/op is the median of
/// `reps` timed repetitions.
std::vector<RungResult> run_ladder(int reps);

/// Rung names, bottom to top.
std::vector<std::string> ladder_rungs();

}  // namespace perfbench
