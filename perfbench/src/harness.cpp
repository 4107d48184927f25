#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "sim/json.hpp"

namespace perfbench {

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum_of_medians(const std::vector<std::vector<double>>& passes) {
  if (passes.empty()) throw std::runtime_error("no passes");
  double total = 0;
  for (std::size_t c = 0; c < passes.front().size(); ++c) {
    std::vector<double> part;
    for (const auto& p : passes) {
      if (p.size() != passes.front().size())
        throw std::runtime_error("passes differ in their parts");
      part.push_back(p[c]);
    }
    total += median(part);
  }
  return total;
}

// --- digest ------------------------------------------------------------------

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add_stats(const bfly::sim::MachineStats& s) {
  for (const auto& n : s.node) {
    add(n.local_refs);
    add(n.remote_refs);
    add(n.serviced_remote);
    add(static_cast<std::uint64_t>(n.stall_ns));
    add(static_cast<std::uint64_t>(n.queue_ns));
    add(static_cast<std::uint64_t>(n.compute_ns));
    add(n.block_words);
  }
  for (std::uint64_t v :
       {s.mem_faults_injected, s.dead_node_refs, s.net_unreachable_refs,
        s.alt_routed, s.drops_exhausted, s.suspects_declared,
        s.false_suspects, s.suspects_unreachable, s.unreachable_restored,
        s.checkpoints_taken, s.restart_count, s.serve_retries, s.serve_hedges,
        s.serve_hedge_wins, s.serve_sheds, s.serve_timeouts,
        s.serve_rereplications, s.serve_quorum_rejects, s.serve_dirty_logged,
        s.serve_reconciled, s.lock_acquisitions, s.lock_spins,
        s.barrier_episodes, s.combined_adds})
    add(v);
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- percentiles -------------------------------------------------------------

std::optional<Tail> percentile(std::vector<double> v, double q) {
  if (v.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < kMinBeyond) return std::nullopt;
  return Tail{v[rank - 1], n, beyond};
}

Tail percentile_or_throw(const std::vector<double>& v, double q,
                         const char* what) {
  const auto t = percentile(v, q);
  if (!t) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s: %zu samples leave fewer than %zu beyond p%g", what,
                  v.size(), kMinBeyond, q * 100);
    throw std::runtime_error(buf);
  }
  return *t;
}

// --- SLO ---------------------------------------------------------------------

bool meets_slo(const Rung& r, const Slo& slo) {
  return r.p99_ms <= slo.p99_ms && r.failed_share <= slo.failed_share &&
         r.last_q_p50_ms <= slo.backlog_growth * r.first_q_p50_ms;
}

double max_rate_under_slo(const std::vector<Rung>& ladder, const Slo& slo) {
  double best = 0;
  for (const Rung& r : ladder)
    if (meets_slo(r, slo)) best = std::max(best, r.rate);
  return best;
}

// --- checkers ----------------------------------------------------------------

bool check_gauss(const std::vector<double>& x, const std::vector<double>& ref,
                 double* max_err) {
  double e = x.size() == ref.size() ? 0.0 : INFINITY;
  for (std::size_t i = 0; i < x.size() && i < ref.size(); ++i) {
    const double d = std::fabs(x[i] - ref[i]);
    e = std::isnan(d) ? INFINITY : std::max(e, d);
  }
  if (max_err != nullptr) *max_err = e;
  return e <= kGaussTolerance;
}

namespace {

std::uint8_t pattern_byte(std::uint32_t file, std::uint32_t block,
                          std::uint64_t id, std::size_t i) {
  std::uint64_t z = id * 0x9e3779b97f4a7c15ULL + file * 131 + block * 37 + i;
  z = (z ^ (z >> 29)) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<std::uint8_t>(z >> 56);
}

// Payload header: id (8 bytes), file (4), block (4); the rest is a pattern
// keyed by all three, so a torn or misplaced block fails decoding.
constexpr std::size_t kHeader = 16;

}  // namespace

void encode_block(std::vector<std::uint8_t>& blk, std::uint32_t file,
                  std::uint32_t block, std::uint64_t id) {
  if (blk.size() < kHeader) blk.resize(kHeader);
  std::memcpy(blk.data(), &id, 8);
  std::memcpy(blk.data() + 8, &file, 4);
  std::memcpy(blk.data() + 12, &block, 4);
  for (std::size_t i = kHeader; i < blk.size(); ++i)
    blk[i] = pattern_byte(file, block, id, i);
}

std::optional<std::uint64_t> decode_block(const std::uint8_t* blk,
                                          std::size_t len, std::uint32_t file,
                                          std::uint32_t block) {
  if (len < kHeader) return std::nullopt;
  std::uint64_t id = 0;
  std::uint32_t f = 0, b = 0;
  std::memcpy(&id, blk, 8);
  std::memcpy(&f, blk + 8, 4);
  std::memcpy(&b, blk + 12, 4);
  if (f != file || b != block) return std::nullopt;
  for (std::size_t i = kHeader; i < len; ++i)
    if (blk[i] != pattern_byte(file, block, id, i)) return std::nullopt;
  return id;
}

ReadBack check_acked_writes(
    const std::vector<WriteRecord>& writes,
    const std::function<std::optional<std::uint64_t>(std::uint32_t,
                                                     std::uint32_t)>&
        read_back,
    std::uint32_t files, std::uint32_t blocks_per_file) {
  // Per block: the latest issue time of any acked write, and each write
  // by id.
  const std::size_t nblk = static_cast<std::size_t>(files) * blocks_per_file;
  std::vector<double> last_acked_issue(nblk, -1.0);
  std::vector<std::map<std::uint64_t, const WriteRecord*>> by_id(nblk);
  for (const WriteRecord& w : writes) {
    if (w.file >= files || w.block >= blocks_per_file) continue;
    const std::size_t i =
        static_cast<std::size_t>(w.file) * blocks_per_file + w.block;
    by_id[i][w.id] = &w;
    if (w.acked)
      last_acked_issue[i] = std::max(last_acked_issue[i], w.issued_ms);
  }
  ReadBack out;
  const auto note = [&](std::size_t* count, std::uint32_t f, std::uint32_t b,
                        const char* msg, std::uint64_t id) {
    ++*count;
    char buf[160];
    std::snprintf(buf, sizeof buf, "file %u block %u: %s (write id %llu)", f,
                  b, msg, static_cast<unsigned long long>(id));
    out.why.push_back(buf);
  };
  for (std::uint32_t f = 0; f < files; ++f) {
    for (std::uint32_t b = 0; b < blocks_per_file; ++b) {
      const std::size_t i = static_cast<std::size_t>(f) * blocks_per_file + b;
      const std::optional<std::uint64_t> got = read_back(f, b);
      if (!got) {
        note(&out.bad, f, b, "read-back returned no intact payload", 0);
        continue;
      }
      if (*got == 0) {
        if (last_acked_issue[i] >= 0)
          note(&out.stale, f, b, "seeding content read after acked writes", 0);
        continue;
      }
      const auto it = by_id[i].find(*got);
      if (it == by_id[i].end()) {
        note(&out.bad, f, b, "content from a write never issued here", *got);
        continue;
      }
      const WriteRecord& w = *it->second;
      if (w.acked && last_acked_issue[i] > w.done_ms)
        note(&out.stale, f, b, "a later acked write is not read back", *got);
    }
  }
  return out;
}

// --- metrics -----------------------------------------------------------------

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  if (!m_.emplace(name, Metric{value, unit}).second)
    throw std::logic_error("metric set twice: " + name);
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  auto it = m_.try_emplace(name, Metric{0.0, unit}).first;
  if (it->second.unit != unit)
    throw std::logic_error("metric unit mismatch: " + name);
  it->second.value += value;
}

void MetricSet::raise(const std::string& name, double value,
                      const std::string& unit) {
  auto [it, fresh] = m_.try_emplace(name, Metric{value, unit});
  if (it->second.unit != unit)
    throw std::logic_error("metric unit mismatch: " + name);
  if (!fresh) it->second.value = std::max(it->second.value, value);
}

const Metric& MetricSet::at(const std::string& name) const {
  const auto it = m_.find(name);
  if (it == m_.end()) throw std::logic_error("metric missing: " + name);
  return it->second;
}

std::string metrics_json(const MetricSet& ms,
                         const std::vector<std::string>& names) {
  std::set<std::string> seen;
  bfly::sim::json::Writer w;
  w.begin_object();
  for (const std::string& n : names) {
    if (!seen.insert(n).second)
      throw std::logic_error("metric listed twice: " + n);
    const Metric& m = ms.at(n);
    // %.17g: every digit the measurement carries (the shared writer's
    // %.9g would round host timings).
    char num[40];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    w.key(n).begin_object();
    w.key("value").raw(num).kv("unit", m.unit).end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace perfbench
