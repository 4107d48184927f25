#include "apps/gauss.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "sim/rng.hpp"

namespace bfly::apps {
namespace {

using sim::butterfly1;
using sim::Machine;

std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// FNV-1a over the solution's bit patterns.
std::uint64_t solution_bits(const std::vector<double>& x) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double d : x) {
    const std::uint64_t b = bits_of(d);
    for (int i = 0; i < 8; ++i) {
      h ^= (b >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(GaussRowUpdate, BitwiseEqualsTheScalarLoop) {
  sim::Rng rng(2024);
  for (std::uint32_t from = 0; from < 4; ++from) {  // odd and even starts
    for (std::uint32_t len = 0; len <= 9; ++len) {
      const std::uint32_t to = from + len;
      std::vector<double> row(to + 3), piv(to + 3);
      for (std::size_t j = 0; j < row.size(); ++j) {
        // Mixed magnitudes so rounding differs from element to element.
        row[j] = (rng.uniform() - 0.5) * (1 << (j % 7));
        piv[j] = (rng.uniform() - 0.5) / (1 + j);
      }
      const double f = rng.uniform() * 3.7 - 1.1;
      std::vector<double> want = row;
      for (std::uint32_t j = from; j < to; ++j) want[j] -= f * piv[j];
      row_update(row.data(), piv.data(), f, from, to);
      for (std::size_t j = 0; j < row.size(); ++j)
        EXPECT_EQ(bits_of(row[j]), bits_of(want[j]))
            << "from=" << from << " len=" << len << " j=" << j;
    }
  }
}

TEST(GaussReference, SolvesTheSystem) {
  const std::uint32_t n = 24;
  std::vector<double> a, b;
  generate_system(n, 7, a, b);
  const std::vector<double> x = gauss_reference(n, 7);
  // Verify A x = b directly.
  for (std::uint32_t i = 0; i < n; ++i) {
    double s = 0;
    for (std::uint32_t j = 0; j < n; ++j)
      s += a[static_cast<std::size_t>(i) * n + j] * x[j];
    EXPECT_NEAR(s, b[i], 1e-8);
  }
}

TEST(GaussUs, MatchesReference) {
  Machine m(butterfly1(16));
  GaussConfig cfg;
  cfg.n = 32;
  GaussResult r = gauss_us(m, cfg);
  ASSERT_EQ(r.solution.size(), cfg.n);
  EXPECT_LT(gauss_error(r, cfg.n, cfg.seed), 1e-9);
  EXPECT_GT(r.elapsed, 0u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(GaussSmp, MatchesReference) {
  Machine m(butterfly1(16));
  GaussConfig cfg;
  cfg.n = 32;
  GaussResult r = gauss_smp(m, cfg);
  ASSERT_EQ(r.solution.size(), cfg.n);
  EXPECT_LT(gauss_error(r, cfg.n, cfg.seed), 1e-9);
  EXPECT_GT(r.messages, 0u);
  EXPECT_FALSE(m.deadlocked());
}

TEST(GaussSmp, SingleProcessorWorks) {
  Machine m(butterfly1(4));
  GaussConfig cfg;
  cfg.n = 16;
  cfg.processors = 1;
  GaussResult r = gauss_smp(m, cfg);
  EXPECT_LT(gauss_error(r, cfg.n, cfg.seed), 1e-9);
  EXPECT_EQ(r.messages, 0u);
}

TEST(GaussUs, SingleProcessorWorks) {
  Machine m(butterfly1(4));
  GaussConfig cfg;
  cfg.n = 16;
  cfg.processors = 1;
  GaussResult r = gauss_us(m, cfg);
  EXPECT_LT(gauss_error(r, cfg.n, cfg.seed), 1e-9);
}

TEST(GaussSmp, MessageVolumeIsPTimesN) {
  Machine m(butterfly1(8));
  GaussConfig cfg;
  cfg.n = 40;
  cfg.processors = 8;
  GaussResult r = gauss_smp(m, cfg);
  // Broadcast: (P-1) per pivot over N-1 pivots, plus (N - ceil(N/P)) gather
  // messages.  The paper rounds this to P*N.
  const std::uint64_t broadcast = static_cast<std::uint64_t>(cfg.n - 1) * 7;
  EXPECT_GE(r.messages, broadcast);
  EXPECT_LE(r.messages, broadcast + cfg.n);
}

// Fixed figures for processor counts that do not divide n, and for one
// processor, so a host-side rewrite of the elimination loops cannot move
// simulated time, message counts or a single bit of the answer.  Every
// variant's solution is bitwise the host reference's.
constexpr std::uint64_t kN37Bits = 0x673e4c03dd06cc06ULL;

GaussResult solve37(bool smp, std::uint32_t procs) {
  Machine m(butterfly1(8));
  GaussConfig cfg;
  cfg.n = 37;
  cfg.processors = procs;
  return smp ? gauss_smp(m, cfg) : gauss_us(m, cfg);
}

TEST(GaussReference, SolutionBitsAreFixed) {
  EXPECT_EQ(solution_bits(gauss_reference(37, GaussConfig{}.seed)), kN37Bits);
}

TEST(GaussUs, UnevenRowsKeepExactFigures) {
  const GaussResult r = solve37(false, 5);
  EXPECT_EQ(r.elapsed, 1004531300u);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(solution_bits(r.solution), kN37Bits);
}

TEST(GaussSmp, UnevenRowsKeepExactFigures) {
  const GaussResult r = solve37(true, 5);
  EXPECT_EQ(r.elapsed, 618782400u);
  EXPECT_EQ(r.messages, 173u);
  EXPECT_EQ(solution_bits(r.solution), kN37Bits);
}

TEST(GaussUs, OneProcessorKeepsExactFigures) {
  const GaussResult r = solve37(false, 1);
  EXPECT_EQ(r.elapsed, 2311482200u);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(solution_bits(r.solution), kN37Bits);
}

TEST(GaussSmp, OneProcessorKeepsExactFigures) {
  const GaussResult r = solve37(true, 1);
  EXPECT_EQ(r.elapsed, 2195405000u);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(solution_bits(r.solution), kN37Bits);
}

TEST(GaussUs, MoreProcessorsIsFasterAtThisScale) {
  GaussConfig cfg;
  cfg.n = 48;
  cfg.processors = 2;
  Machine m2(butterfly1(32));
  const auto t2 = gauss_us(m2, cfg).elapsed;
  cfg.processors = 16;
  Machine m16(butterfly1(32));
  const auto t16 = gauss_us(m16, cfg).elapsed;
  EXPECT_LT(t16, t2);
}

struct GaussParam {
  std::uint32_t n;
  std::uint32_t procs;
};

class GaussBothModels : public ::testing::TestWithParam<GaussParam> {};

TEST_P(GaussBothModels, AgreeWithReference) {
  const GaussParam p = GaussParam(GetParam());
  {
    Machine m(butterfly1(16));
    GaussConfig cfg;
    cfg.n = p.n;
    cfg.processors = p.procs;
    EXPECT_LT(gauss_error(gauss_us(m, cfg), cfg.n, cfg.seed), 1e-8)
        << "US n=" << p.n << " P=" << p.procs;
  }
  {
    Machine m(butterfly1(16));
    GaussConfig cfg;
    cfg.n = p.n;
    cfg.processors = p.procs;
    EXPECT_LT(gauss_error(gauss_smp(m, cfg), cfg.n, cfg.seed), 1e-8)
        << "SMP n=" << p.n << " P=" << p.procs;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GaussBothModels,
    ::testing::Values(GaussParam{8, 2}, GaussParam{16, 3}, GaussParam{17, 4},
                      GaussParam{32, 8}, GaussParam{33, 16},
                      GaussParam{64, 16}));

}  // namespace
}  // namespace bfly::apps
