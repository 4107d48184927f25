// The committed benchmark artifacts (BENCH_*.json and BENCHMARK.json at the
// repository root) must be well-formed JSON with no key repeated inside one
// object: a reader keeps only one of two same-named values, so a duplicate
// silently hides a number.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scope/trace_check.hpp"

namespace bfly::scope {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> committed_artifacts() {
  std::vector<fs::path> out;
  for (const fs::directory_entry& e : fs::directory_iterator(BFLY_SOURCE_DIR)) {
    const std::string name = e.path().filename().string();
    if (name == "BENCHMARK.json" ||
        (name.starts_with("BENCH_") && name.ends_with(".json")))
      out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(BenchArtifacts, EveryCommittedJsonParsesWithoutDuplicateKeys) {
  const std::vector<fs::path> files = committed_artifacts();
  ASSERT_GE(files.size(), 2u) << "no BENCH_*.json found in " BFLY_SOURCE_DIR;
  for (const fs::path& p : files) {
    std::ifstream in(p);
    ASSERT_TRUE(in) << p;
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue v;
    std::string err;
    EXPECT_TRUE(json_parse(ss.str(), &v, &err)) << p.filename() << ": " << err;
  }
}

}  // namespace
}  // namespace bfly::scope
