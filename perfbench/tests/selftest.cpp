// The benchmark's own tests: its checkers must reject wrong answers, its
// tail percentiles must refuse thin tails, its SLO rule must pick the right
// rung, its JSON must carry no duplicate key, and its digest must see no
// difference between traced and untraced runs.  Run with ctest from the
// perfbench build directory, or run the binary directly.

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/gauss.hpp"
#include "harness.hpp"
#include "layers.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
    }                                                                 \
  } while (0)

// --- Gauss checker -----------------------------------------------------------

void gauss_checker_rejects_corruption() {
  constexpr std::uint32_t n = 32;
  bfly::sim::Machine m(bfly::sim::butterfly1(16));
  bfly::apps::GaussConfig cfg;
  cfg.n = n;
  cfg.processors = 8;
  cfg.seed = 7;
  const bfly::apps::GaussResult g = bfly::apps::gauss_us(m, cfg);
  const std::vector<double> ref = bfly::apps::gauss_reference(n, cfg.seed);
  double err = 0;
  CHECK(check_gauss(g.solution, ref, &err));
  CHECK(err <= kGaussTolerance);

  std::vector<double> bad = g.solution;
  bad[n / 2] += 1e-3;
  CHECK(!check_gauss(bad, ref, &err));
  bad = g.solution;
  bad[0] = NAN;
  CHECK(!check_gauss(bad, ref, nullptr));
  bad = g.solution;
  bad.pop_back();
  CHECK(!check_gauss(bad, ref, nullptr));
}

// --- acked-write checker -----------------------------------------------------

// A two-block store whose final content the test dictates.
struct Store {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> final_id;
  ReadBack check(const std::vector<WriteRecord>& w) const {
    std::vector<std::uint8_t> blk(256);
    return check_acked_writes(
        w,
        [&](std::uint32_t f, std::uint32_t b) -> std::optional<std::uint64_t> {
          encode_block(blk, f, b, final_id.at({f, b}));
          if (final_id.at({f, b}) == 999) blk[40] ^= 1;  // corrupt it
          return decode_block(blk.data(), blk.size(), f, b);
        },
        1, 2);
  }
};

void write_checker_rejects_dropped_ack() {
  // Block 0: acked write 1 (0-5 ms), then acked write 2 (10-15 ms).
  // Block 1: acked write 3, then an unacked (timed-out) write 4.
  const std::vector<WriteRecord> w{
      {0, 0, 1, 0, 5, true},
      {0, 0, 2, 10, 15, true},
      {0, 1, 3, 0, 5, true},
      {0, 1, 4, 10, 400, false},
  };
  Store s;
  s.final_id = {{{0, 0}, 2}, {{0, 1}, 3}};
  ReadBack rb = s.check(w);
  CHECK(rb.bad == 0 && rb.stale == 0);
  s.final_id[{0, 1}] = 4;  // the unacked write may have landed
  rb = s.check(w);
  CHECK(rb.bad == 0 && rb.stale == 0);
  s.final_id[{0, 0}] = 1;  // write 2 was acked, then dropped
  rb = s.check(w);
  CHECK(rb.bad == 0 && rb.stale == 1 && rb.why.size() == 1);
  s.final_id[{0, 0}] = 0;  // seeding survived two acked writes
  rb = s.check(w);
  CHECK(rb.bad == 0 && rb.stale == 1);
  s.final_id[{0, 0}] = 3;  // content of another block's write
  CHECK(s.check(w).bad == 1);
  s.final_id[{0, 0}] = 999;  // torn payload
  CHECK(s.check(w).bad == 1);

  // Overlapping acked writes: either may be final.
  const std::vector<WriteRecord> overlap{
      {0, 0, 1, 0, 10, true},
      {0, 0, 2, 5, 8, true},
      {0, 1, 3, 0, 5, true},
  };
  s.final_id = {{{0, 0}, 1}, {{0, 1}, 3}};
  rb = s.check(overlap);
  CHECK(rb.bad == 0 && rb.stale == 0);
  s.final_id[{0, 0}] = 2;
  rb = s.check(overlap);
  CHECK(rb.bad == 0 && rb.stale == 0);

  // A torn payload never decodes.
  std::vector<std::uint8_t> blk(256);
  encode_block(blk, 0, 1, 9);
  CHECK(decode_block(blk.data(), blk.size(), 0, 1) == 9u);
  blk[100] ^= 1;
  CHECK(!decode_block(blk.data(), blk.size(), 0, 1));
  encode_block(blk, 0, 1, 9);
  CHECK(!decode_block(blk.data(), blk.size(), 0, 0));  // misplaced
}

// --- percentiles -------------------------------------------------------------

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void percentile_refuses_thin_tails() {
  CHECK(percentile(ramp(1000), 0.99).has_value());
  CHECK(percentile(ramp(1000), 0.99)->beyond == 10);
  CHECK(percentile(ramp(1000), 0.99)->value == 990.0);
  CHECK(!percentile(ramp(999), 0.99).has_value());
  CHECK(percentile(ramp(10000), 0.999).has_value());
  CHECK(!percentile(ramp(9999), 0.999).has_value());
  CHECK(percentile(ramp(21), 0.5)->value == 11.0);
  CHECK(!percentile({}, 0.5).has_value());
  bool threw = false;
  try {
    (void)percentile_or_throw(ramp(500), 0.99, "test");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);
}

// --- SLO ---------------------------------------------------------------------

void max_rate_under_slo_on_synthetic_ladder() {
  const Slo slo;
  std::vector<Rung> ladder{
      {600, 9.0, 0.0, 3.5, 3.6},
      {1200, 30.0, 0.0, 4.0, 5.0},
      {1800, 80.0, 0.0, 8.0, 9.0},     // p99 over the limit
      {2400, 400.0, 0.01, 20.0, 300.0},
  };
  CHECK(max_rate_under_slo(ladder, slo) == 1200);
  ladder[1].failed_share = 0.002;  // too many failures
  CHECK(max_rate_under_slo(ladder, slo) == 600);
  ladder[1].failed_share = 0.0;
  ladder[1].last_q_p50_ms = 8.5;  // backlog growing (> 2x)
  CHECK(max_rate_under_slo(ladder, slo) == 600);
  ladder[1].last_q_p50_ms = 5.0;
  ladder[2].p99_ms = 50.0;  // exactly at the limit passes
  CHECK(max_rate_under_slo(ladder, slo) == 1800);
  for (Rung& r : ladder) r.p99_ms = 1000;
  CHECK(max_rate_under_slo(ladder, slo) == 0);
}

// --- JSON --------------------------------------------------------------------

// Scan a JSON text and report whether any object repeats a key.
bool has_duplicate_key(const std::string& s) {
  std::vector<std::set<std::string>> objs;
  std::vector<bool> is_obj;
  bool expect_key = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '{') {
      objs.emplace_back();
      is_obj.push_back(true);
      expect_key = true;
    } else if (c == '[') {
      is_obj.push_back(false);
      expect_key = false;
    } else if (c == '}' || c == ']') {
      if (c == '}') objs.pop_back();
      is_obj.pop_back();
      expect_key = false;
    } else if (c == ',') {
      expect_key = !is_obj.empty() && is_obj.back();
    } else if (c == '"') {
      std::string str;
      for (++i; i < s.size() && s[i] != '"'; ++i) {
        if (s[i] == '\\') ++i;
        str += s[i];
      }
      if (expect_key) {
        if (!objs.back().insert(str).second) return true;
        expect_key = false;
      }
    }
  }
  return false;
}

void json_has_no_duplicate_keys() {
  MetricSet ms;
  ms.set("host_wall_s", 1.25, "s");
  ms.set("setup_s", 0.5, "s");
  bool threw = false;
  try {
    ms.set("setup_s", 0.6, "s");
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  const std::string doc = metrics_json(ms, {"host_wall_s", "setup_s"});
  CHECK(!has_duplicate_key(doc));
  CHECK(has_duplicate_key("{\"a\":{\"value\":1},\"a\":{\"value\":2}}"));
  CHECK(!has_duplicate_key("{\"a\":{\"value\":1},\"b\":{\"value\":1}}"));
  threw = false;
  try {
    (void)metrics_json(ms, {"setup_s", "setup_s"});
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  // Full precision: a host timing keeps all its digits.
  MetricSet p;
  p.set("t", 0.123456789012345, "s");
  CHECK(metrics_json(p, {"t"}).find("0.123456789012345") != std::string::npos);
}

// --- digest ------------------------------------------------------------------

std::uint64_t gauss_digest(bool spans) {
  bfly::sim::Machine m(bfly::sim::butterfly1(16));
  PassResult r;
  MachineScope scope(m, spans, "selftest");
  bfly::apps::GaussConfig cfg;
  cfg.n = 24;
  cfg.processors = 8;
  const bfly::apps::GaussResult g = bfly::apps::gauss_smp(m, cfg);
  scope.finish(r);
  for (const double x : g.solution) r.digest.add(x);
  r.digest.add(static_cast<std::uint64_t>(g.elapsed));
  return r.digest.value();
}

void digest_ignores_tracing() {
  const std::uint64_t plain = gauss_digest(false);
  CHECK(plain == gauss_digest(false));
  CHECK(plain == gauss_digest(true));
}

}  // namespace

int main() {
  gauss_checker_rejects_corruption();
  write_checker_rejects_dropped_ack();
  percentile_refuses_thin_tails();
  max_rate_under_slo_on_synthetic_ladder();
  json_has_no_duplicate_keys();
  digest_ignores_tracing();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
