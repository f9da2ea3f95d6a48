// Parameterized property sweeps across the experiment grid: for every
// (#UEs, #transmissions) cell, core invariants of the framework hold.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.hpp"
#include "scenario/compressed_pair.hpp"
#include "scenario/probes.hpp"

namespace d2dhb::scenario {
namespace {

using Grid = std::tuple<std::size_t /*ues*/, std::size_t /*transmissions*/,
                        bool /*lte*/>;

class PairGridTest : public ::testing::TestWithParam<Grid> {};

TEST_P(PairGridTest, InvariantsHoldAcrossTheGrid) {
  const auto [ues, transmissions, lte] = GetParam();
  CompressedPairConfig config;
  config.num_ues = ues;
  config.transmissions = transmissions;
  config.use_lte = lte;
  const PairMetrics d2d = run_d2d_pair(config);
  const PairMetrics orig = run_original_pair(config);

  // 1. Delivery: every emitted heartbeat reaches the server, on time.
  const std::uint64_t expected = (ues + 1) * transmissions;
  EXPECT_EQ(d2d.server.delivered, expected);
  EXPECT_EQ(d2d.server.late, 0u);
  EXPECT_EQ(orig.server.delivered, expected);

  // 2. Signaling: the D2D system needs at most the relay's share; the
  //    reduction is at least 1 - 1/(ues+1) minus the small RB-reconfig
  //    overhead for large aggregates.
  EXPECT_EQ(d2d.ue_l3, 0u);
  const double reduction =
      1.0 - static_cast<double>(d2d.system_l3) /
                static_cast<double>(orig.system_l3);
  const double ideal = 1.0 - 1.0 / static_cast<double>(ues + 1);
  EXPECT_GE(reduction, ideal - 0.05);

  // 3. Aggregation: exactly one cellular bundle per relay period when
  //    capacity doesn't bind.
  if (ues < config.capacity) {
    EXPECT_EQ(d2d.bundles, transmissions);
    EXPECT_NEAR(d2d.mean_bundle_size, static_cast<double>(ues + 1), 0.01);
  }

  // 4. Energy: UEs always save versus their original-system selves.
  EXPECT_LT(d2d.ue_uah_total, orig.ue_uah_total);

  // 5. The relay pays more than its original self (it volunteers
  //    energy), but the whole system never pays more than ~10 % extra —
  //    except at a single transmission on LTE, whose cheap per-heartbeat
  //    cost (short promotion, DRX tail) leaves the one-time D2D setup
  //    un-amortized (~31 % over). Break-even just moves out by a couple
  //    of transmissions.
  EXPECT_GE(d2d.relay_uah, orig.relay_uah);
  const double worst_case = (lte && transmissions == 1) ? 1.35 : 1.10;
  EXPECT_LT(d2d.system_uah, orig.system_uah * worst_case);

  // 6. Incentives: credits equal forwarded heartbeats.
  EXPECT_DOUBLE_EQ(d2d.relay_credits, static_cast<double>(d2d.forwarded));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PairGridTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 7),
                       ::testing::Values<std::size_t>(1, 2, 4, 8),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Grid>& info) {
      return "ues" + std::to_string(std::get<0>(info.param)) + "_tx" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_lte" : "_wcdma");
    });

class DistanceSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(DistanceSweepTest, EnergyGrowsWithDistanceButDeliveryHolds) {
  const double distance = GetParam();
  CompressedPairConfig config;
  config.ue_distance_m = distance;
  config.transmissions = 4;
  const PairMetrics d2d = run_d2d_pair(config);
  EXPECT_EQ(d2d.server.delivered, 8u);
  EXPECT_EQ(d2d.server.late, 0u);
  // UE energy is monotone in distance (checked against the 1 m cell).
  CompressedPairConfig reference = config;
  reference.ue_distance_m = 1.0;
  const PairMetrics ref = run_d2d_pair(reference);
  EXPECT_GE(d2d.ue_uah_total, ref.ue_uah_total - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Distances, DistanceSweepTest,
                         ::testing::Values(1.0, 3.0, 5.0, 10.0, 15.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           std::string name = "d";
                           name += std::to_string(static_cast<int>(info.param));
                           return name;
                         });

class SizeSweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SizeSweepTest, SizeBarelyMovesEnergy) {
  // Fig. 13: 1x..5x the 54 B standard stays almost constant.
  CompressedPairConfig config;
  config.heartbeat_bytes = GetParam();
  config.transmissions = 4;
  const PairMetrics d2d = run_d2d_pair(config);
  CompressedPairConfig reference = config;
  reference.heartbeat_bytes = 54;
  const PairMetrics ref = run_d2d_pair(reference);
  EXPECT_EQ(d2d.server.delivered, 8u);
  EXPECT_LT(std::abs(d2d.ue_uah_total - ref.ue_uah_total),
            0.15 * ref.ue_uah_total + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweepTest,
                         ::testing::Values(54u, 108u, 162u, 216u, 270u),
                         [](const ::testing::TestParamInfo<std::uint32_t>&
                                info) {
                           std::string name = "b";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(Probes, PhaseEnergiesMatchTableIII) {
  const PhaseProbeResult r = measure_phases();
  EXPECT_NEAR(r.ue.discovery_uah, 132.24, 1.0);
  EXPECT_NEAR(r.relay.discovery_uah, 122.50, 1.0);
  EXPECT_NEAR(r.ue.connection_uah, 63.74, 1.0);
  EXPECT_NEAR(r.relay.connection_uah, 60.29, 1.0);
  EXPECT_NEAR(r.ue.forwarding_uah, 73.09, 2.0);
  EXPECT_NEAR(r.relay.forwarding_uah, 132.45, 2.0);
}

TEST(Probes, ReceiveEnergyIsLinearPerTableIV) {
  const auto cumulative = measure_receive_energy(7);
  ASSERT_EQ(cumulative.size(), 7u);
  std::vector<double> xs;
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    xs.push_back(static_cast<double>(i + 1));
  }
  const LinearFit fit = fit_linear(xs, cumulative);
  EXPECT_NEAR(fit.slope, 131.3, 5.0);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Probes, D2dTraceSpikesAndDecaysFast) {
  const TraceResult t = trace_d2d_transfer();
  EXPECT_GT(t.peak_ma, 700.0);
  // Short episode: ~74 µAh total (Fig. 6), far below cellular.
  EXPECT_NEAR(t.charge_uah, 73.09, 3.0);
}

TEST(Probes, CellularTraceLastsLonger) {
  const TraceResult t = trace_cellular_transfer();
  EXPECT_GT(t.peak_ma, 700.0);
  EXPECT_NEAR(t.charge_uah, 598.3, 3.0);
  // The cellular episode occupies most of the 9 s window with elevated
  // current; the D2D one is over within ~1 s.
  const TraceResult d2d = trace_d2d_transfer();
  int cell_hot = 0, d2d_hot = 0;
  for (double y : t.series.ys) {
    if (y > 300.0) ++cell_hot;
  }
  for (double y : d2d.series.ys) {
    if (y > 300.0) ++d2d_hot;
  }
  EXPECT_GT(cell_hot, 5 * std::max(d2d_hot, 1));
}

}  // namespace
}  // namespace d2dhb::scenario
