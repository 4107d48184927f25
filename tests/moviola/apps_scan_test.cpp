// False-positive gate: the application suite runs with the Detector
// attached and must come out with zero findings and zero lints — a
// healthy run that joins all its workers leaves nothing blocked, and
// nothing in the stack blocks while holding a spin lock or charges from a
// hook.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/gauss.hpp"
#include "apps/graph.hpp"
#include "apps/hough.hpp"
#include "apps/sort.hpp"
#include "moviola/wait_graph.hpp"

namespace bfly::moviola {
namespace {

using sim::butterfly1;
using sim::Machine;

TEST(WaitScan, GaussUs) {
  Machine m(butterfly1(8));
  Detector d(m);
  apps::GaussConfig cfg;
  cfg.n = 24;
  apps::GaussResult r = apps::gauss_us(m, cfg);
  EXPECT_LT(apps::gauss_error(r, cfg.n, cfg.seed), 1e-9);
  EXPECT_FALSE(m.deadlocked());
  EXPECT_TRUE(d.analyze().empty()) << d.report();
  EXPECT_TRUE(d.lints().empty()) << d.report();
}

TEST(WaitScan, GaussSmp) {
  Machine m(butterfly1(8));
  Detector d(m);
  apps::GaussConfig cfg;
  cfg.n = 24;
  (void)apps::gauss_smp(m, cfg);
  EXPECT_FALSE(m.deadlocked());
  EXPECT_TRUE(d.analyze().empty()) << d.report();
  EXPECT_TRUE(d.lints().empty()) << d.report();
}

TEST(WaitScan, Hough) {
  Machine m(butterfly1(8));
  Detector d(m);
  apps::HoughConfig cfg;
  cfg.width = 64;
  cfg.height = 64;
  cfg.angles = 45;
  cfg.processors = 8;
  cfg.noise = 50;
  (void)apps::hough(m, cfg);
  EXPECT_FALSE(m.deadlocked());
  EXPECT_TRUE(d.analyze().empty()) << d.report();
  EXPECT_TRUE(d.lints().empty()) << d.report();
}

TEST(WaitScan, OddEvenSort) {
  Machine m(butterfly1(8));
  Detector d(m);
  apps::SortConfig cfg;
  cfg.n = 128;
  cfg.processors = 4;
  apps::SortResult r = apps::odd_even_sort(m, cfg);
  EXPECT_TRUE(std::is_sorted(r.keys.begin(), r.keys.end()));
  EXPECT_FALSE(m.deadlocked());
  EXPECT_TRUE(d.analyze().empty()) << d.report();
  EXPECT_TRUE(d.lints().empty()) << d.report();
}

TEST(WaitScan, ConnectedComponents) {
  Machine m(butterfly1(8));
  Detector d(m);
  const apps::Graph g = apps::Graph::random(60, 3, 77);
  apps::GraphRunResult r = apps::connected_components(m, g, 8);
  EXPECT_EQ(r.labels, apps::cc_reference(g));
  EXPECT_FALSE(m.deadlocked());
  EXPECT_TRUE(d.analyze().empty()) << d.report();
  EXPECT_TRUE(d.lints().empty()) << d.report();
}

}  // namespace
}  // namespace bfly::moviola
