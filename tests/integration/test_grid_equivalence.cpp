// Seeded-run determinism of the grid-backed medium at crowd scale: the
// same seeded crowd run twice in one process must export byte-identical
// metrics. The grid is the only scan path; its scan oracle is the
// brute-force walk in tests/d2d/test_medium.cpp, and the
// SpatialGrid-vs-naive property tests cover the index itself.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "metrics/export.hpp"
#include "scenario/crowd.hpp"

namespace d2dhb::scenario {
namespace {

std::string metrics_json(const CrowdMetrics& m) {
  std::ostringstream os;
  metrics::export_json(m.metrics, os);
  return os.str();
}

TEST(GridEquivalence, RepeatedSeededRunsAreDeterministic) {
  // Same seed, same path, twice — guards the grid's internal state
  // (bucket reuse, refresh cache) against run-order dependence.
  CrowdConfig config;
  config.phones = 24;
  config.relay_fraction = 0.25;
  config.area_m = 70.0;
  config.clusters = 2;
  config.duration_s = 900.0;
  config.seed = 512;
  const CrowdMetrics a = run_d2d_crowd(config);
  const CrowdMetrics b = run_d2d_crowd(config);
  EXPECT_EQ(metrics_json(a), metrics_json(b));
  EXPECT_EQ(a.total_l3, b.total_l3);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

}  // namespace
}  // namespace d2dhb::scenario
