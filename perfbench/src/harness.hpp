// Measurement plumbing shared by every perfbench workload: the host clock,
// the determinism digest, tail percentiles that refuse thin tails, the
// serving SLO rule, answer checkers, and the metric document the run prints.
//
// Two clocks run through everything here.  Host time (steady_clock seconds)
// is what the simulator costs; simulated time (sim::Time nanoseconds) is
// the reproduction's output and must repeat exactly for a given seed.
// Nothing in this file feeds host time into a simulated quantity.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace perfbench {

// --- host clock --------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Median of a non-empty sample (the input is copied, not reordered).
double median(std::vector<double> v);

/// `passes[p][c]` is part c of pass p: the sum over parts of each part's
/// median across passes.  Every pass must have the same number of parts.
double sum_of_medians(const std::vector<std::vector<double>>& passes);

// --- determinism digest ------------------------------------------------------

/// FNV-1a over every simulated output a workload produces.  Host-side
/// values (wall times, host-perf counters, fast-path state) never enter it,
/// so it is identical across repeated passes, across traced and untraced
/// runs, and across host-only changes to the simulator.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);  ///< exact bit pattern
  /// Every simulated counter of the machine (per-node and machine-wide);
  /// HostPerf is deliberately left out.
  void add_stats(const bfly::sim::MachineStats& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string hex64(std::uint64_t v);

// --- tail percentiles --------------------------------------------------------

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr std::size_t kMinBeyond = 10;

struct Tail {
  double value = 0;        ///< the percentile itself
  std::size_t n = 0;       ///< samples it was taken over
  std::size_t beyond = 0;  ///< samples strictly past its rank
};

/// Nearest-rank percentile q (0 < q < 1) of `v`, or nullopt when fewer
/// than kMinBeyond samples lie beyond its rank: a tail too thin to report.
std::optional<Tail> percentile(std::vector<double> v, double q);

/// percentile() that throws std::runtime_error naming `what` instead of
/// returning nullopt.  Workload windows are sized so this never fires.
Tail percentile_or_throw(const std::vector<double>& v, double q,
                         const char* what);

// --- serving SLO -------------------------------------------------------------

/// One rung of an open-loop rate ladder, reduced to what the SLO reads.
struct Rung {
  double rate = 0;          ///< offered ops per simulated second
  double p99_ms = 0;        ///< simulated p99 response time
  double failed_share = 0;  ///< non-OK requests / attempted
  double first_q_p50_ms = 0;  ///< median latency of the first window quarter
  double last_q_p50_ms = 0;   ///< median latency of the last window quarter
};

struct Slo {
  double p99_ms = 50;
  double failed_share = 0.001;
  double backlog_growth = 2.0;  ///< last-quarter / first-quarter median cap
};

bool meets_slo(const Rung& r, const Slo& slo);

/// Highest rate of the ladder that meets the SLO, or 0 when none does.
/// Rungs need not be sorted.
double max_rate_under_slo(const std::vector<Rung>& ladder, const Slo& slo);

// --- answer checkers (PBBS style: inputs, outputs, and a check) --------------

/// Max-abs error a simulated Gauss solution may carry against the host
/// reference elimination of the same system.
inline constexpr double kGaussTolerance = 1e-6;

/// True when `x` solves the system within kGaussTolerance of `ref`.
bool check_gauss(const std::vector<double>& x, const std::vector<double>& ref,
                 double* max_err);

/// One write the serving client issued.  `acked` writes returned kOk.
struct WriteRecord {
  std::uint32_t file = 0;
  std::uint32_t block = 0;
  std::uint64_t id = 0;         ///< unique per write, encoded in its payload
  double issued_ms = 0;         ///< simulated issue time
  double done_ms = 0;           ///< simulated return time
  bool acked = false;
};

/// Fill a serving block payload that carries write `id` for (file, block)
/// (id 0 is the initial seeding).  decode_block() recovers it.
void encode_block(std::vector<std::uint8_t>& blk, std::uint32_t file,
                  std::uint32_t block, std::uint64_t id);
/// The write id a payload carries, or nullopt when it is not an intact
/// payload for (file, block) — torn, corrupted, or misplaced.
std::optional<std::uint64_t> decode_block(const std::uint8_t* blk,
                                          std::size_t len, std::uint32_t file,
                                          std::uint32_t block);

/// Outcome of a read-back over every block of a register-per-block store.
struct ReadBack {
  /// Blocks whose content is wrong: unreadable, torn or misplaced, or
  /// written by no write ever issued to that block.
  std::size_t bad = 0;
  /// Blocks whose content is an older write than one the client saw
  /// acknowledged: an acked write that a reader no longer sees.  The
  /// seeding (id 0) counts as an older write.  Superseded means an acked
  /// write W2 was issued after W returned; an unacknowledged write may have
  /// taken effect at any time after its issue, so it is never superseded.
  std::size_t stale = 0;
  std::vector<std::string> why;  ///< one line per bad or stale block
};

ReadBack check_acked_writes(
    const std::vector<WriteRecord>& writes,
    const std::function<std::optional<std::uint64_t>(std::uint32_t file,
                                                     std::uint32_t block)>&
        read_back,
    std::uint32_t files, std::uint32_t blocks_per_file);

// --- metric document ---------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// Named metrics in insertion-independent (sorted) order.  set() refuses a
/// name twice, so no document can carry a duplicate key.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Add to a metric, creating it at zero with `unit` when absent.
  void add(const std::string& name, double value, const std::string& unit);
  /// Raise a metric to at least `value`, creating it at `value`.
  void raise(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return m_.count(name) != 0; }
  const Metric& at(const std::string& name) const;
  const std::map<std::string, Metric>& all() const { return m_; }

 private:
  std::map<std::string, Metric> m_;
};

/// `{"name": {"value": v, "unit": "u"}, ...}` for the listed names, in list
/// order.  Throws when a name is missing or listed twice.
std::string metrics_json(const MetricSet& ms,
                         const std::vector<std::string>& names);

}  // namespace perfbench
