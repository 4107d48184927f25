// Shared helpers for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation, printing the same rows/series the paper reports.  Benches run
// entirely in simulated time, so "seconds" below are Butterfly seconds, not
// host seconds.  Set BFLY_FAST=1 in the environment to shrink problem sizes
// for smoke runs (CI); the default sizes match the paper's scale.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace bfly::bench {

inline bool fast_mode() {
  const char* v = std::getenv("BFLY_FAST");
  return v != nullptr && v[0] != '0';
}

inline double seconds(sim::Time t) {
  return static_cast<double>(t) / sim::kSecond;
}

inline void header(const char* id, const char* title, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("paper: %s\n", claim);
  std::printf("==============================================================\n");
}

// --- Self-gating benches ----------------------------------------------------
// A self-gating bench checks its shape claims with gate(), collects one JSON
// object per row in g_rows, writes them with write_rows(), and exits
// nonzero when any gate failed.

inline int g_violations = 0;
inline std::vector<std::string> g_rows;

inline void gate(bool ok, const char* what) {
  if (ok) return;
  ++g_violations;
  std::fprintf(stderr, "GATE FAILED: %s\n", what);
}

/// Write {"bench":<bench>,"<mode_key>":<mode>,"rows":[g_rows...]} to the
/// path in $<path_env>, or `default_path` when it is unset.  A file that
/// cannot be written counts as a failed gate.
inline void write_rows(const char* bench, const char* mode_key, bool mode,
                       const char* path_env, const char* default_path) {
  const char* out_path = std::getenv(path_env);
  if (out_path == nullptr) out_path = default_path;
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not write %s\n", out_path);
    ++g_violations;
    return;
  }
  std::fprintf(f, "{\"bench\":\"%s\",\"%s\":%s,\"rows\":[", bench, mode_key,
               mode ? "true" : "false");
  for (std::size_t i = 0; i < g_rows.size(); ++i)
    std::fprintf(f, "%s%s", i > 0 ? "," : "", g_rows[i].c_str());
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu rows)\n", out_path, g_rows.size());
}

/// True (after reporting the count) when any gate failed.
inline bool gates_failed() {
  if (g_violations == 0) return false;
  std::fprintf(stderr, "\n%d gate(s) FAILED\n", g_violations);
  return true;
}

}  // namespace bfly::bench
