// Per-layer accounting for perfbench: the benchmark-owned span sink and the
// per-machine collector every workload brackets its configurations with.
//
// Nothing here charges simulated time.  A LayerSink is a sim::TraceSink, so
// attaching one forfeits the charge() fast path (host cost only); the
// simulated outcome — and so the workload's digest — is unchanged, which
// main.cpp asserts by comparing traced and untraced digests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.hpp"
#include "sim/machine.hpp"

namespace perfbench {

/// Sums simulated span time by category from the annotations the runtime
/// layers already emit (chrys, us, smp, bridge, serve, rescue, ...).
/// Self time is a span's duration minus the part its child spans on the
/// same track cover.
class LayerSink final : public bfly::sim::TraceSink {
 public:
  explicit LayerSink(bfly::sim::Machine& m);
  ~LayerSink() override;
  LayerSink(const LayerSink&) = delete;
  LayerSink& operator=(const LayerSink&) = delete;

  void on_span_begin(bfly::sim::Fiber* f, bfly::sim::NodeId node,
                     const char* cat, const char* name,
                     std::uint64_t arg) override;
  void on_span_end(bfly::sim::Fiber* f, bfly::sim::NodeId node) override;
  void on_instant(bfly::sim::Fiber*, bfly::sim::NodeId, const char*,
                  const char*, std::uint64_t) override {}
  void on_reference(bfly::sim::NodeId, bfly::sim::NodeId, std::uint32_t,
                    bfly::sim::Time, bfly::sim::MemOp,
                    bfly::sim::Time) override {}

  struct Sum {
    std::uint64_t count = 0;
    bfly::sim::Time total_ns = 0;  ///< inclusive span time
  };
  /// Self time per category.
  const std::unordered_map<std::string, bfly::sim::Time>& self_ns() const {
    return self_;
  }
  /// Completed spans per "cat/name".
  const std::unordered_map<std::string, Sum>& spans() const { return spans_; }

 private:
  struct Open {
    const char* cat;
    const char* name;
    bfly::sim::Time begin;
    bfly::sim::Time child_ns;
  };
  bfly::sim::Machine& m_;
  std::unordered_map<const void*, std::vector<Open>> open_;  // per track
  std::unordered_map<std::string, bfly::sim::Time> self_;
  std::unordered_map<std::string, Sum> spans_;
};

/// What one pass of a workload produced.
struct PassResult {
  /// Host seconds of set-up and of the measured phase, one entry per part
  /// (configuration); every pass of a workload has the same parts in the
  /// same order, so each part's median is taken over like samples.
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  Digest digest;
  std::uint64_t attempted = 0;  ///< operations issued and checked
  std::uint64_t failed = 0;     ///< operations that failed or checked wrong
  std::vector<std::string> check_failures;
  MetricSet outcome;  ///< workload-level simulated outcomes
  MetricSet layers;   ///< per-layer counters (sim, chrys, serve, ...)
  std::vector<std::string> machines;  ///< per-machine host-engine state
  std::vector<std::string> notes;     ///< per-configuration report lines

  void fail_check(const std::string& why) {
    ++failed;
    check_failures.push_back(why);
  }
};

/// Brackets one configuration's machine: attaches a LayerSink when spans
/// are requested, and on finish() folds the machine's stats, host-engine
/// counters and span sums into the pass result and its digest.
class MachineScope {
 public:
  MachineScope(bfly::sim::Machine& m, bool spans, std::string label);
  ~MachineScope();
  MachineScope(const MachineScope&) = delete;
  MachineScope& operator=(const MachineScope&) = delete;

  /// Call once, after the machine's run() returned.
  void finish(PassResult& r);

 private:
  bfly::sim::Machine& m_;
  std::string label_;
  std::unique_ptr<LayerSink> sink_;
};

/// The layer categories whose self time the traced run reports.
const std::vector<std::string>& span_categories();

}  // namespace perfbench
