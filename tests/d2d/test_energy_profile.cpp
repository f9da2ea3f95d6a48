#include "d2d/energy_profile.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::d2d {
namespace {

TEST(PhaseShape, TotalsAndWeights) {
  const PhaseShape shape{{{seconds(1), 2.0}, {seconds(3), 0.5}}};
  EXPECT_EQ(shape.total_duration(), seconds(4));
  EXPECT_DOUBLE_EQ(shape.weighted_seconds(), 2.0 * 1.0 + 0.5 * 3.0);
}

TEST(ApplyPhase, IntegratesToExactTarget) {
  sim::Simulator sim;
  energy::EnergyMeter meter{sim};
  const auto c = meter.register_component("wifi");
  const PhaseShape shape = D2dEnergyProfile::send_shape();
  const Duration total = apply_phase(meter, c, shape, MicroAmpHours{73.09});
  EXPECT_EQ(total, shape.total_duration());
  sim.run_until(sim.now() + total + seconds(1));
  EXPECT_NEAR(meter.component_charge(c).value, 73.09, 1e-9);
}

TEST(ApplyPhase, RejectsZeroAreaShape) {
  sim::Simulator sim;
  energy::EnergyMeter meter{sim};
  const auto c = meter.register_component("wifi");
  EXPECT_THROW(apply_phase(meter, c, PhaseShape{}, MicroAmpHours{10.0}),
               std::invalid_argument);
}

TEST(ApplyPhase, SendShapeSpikesThenDecays) {
  sim::Simulator sim;
  energy::EnergyMeter meter{sim};
  const auto c = meter.register_component("wifi");
  apply_phase(meter, c, D2dEnergyProfile::send_shape(), MicroAmpHours{73.09});
  // Sample the burst (inside 100..350 ms) and the decay (>350 ms).
  double burst = 0.0, decay = 0.0;
  sim.schedule_after(milliseconds(200),
                     [&] { burst = meter.component_current(c).value; });
  sim.schedule_after(milliseconds(500),
                     [&] { decay = meter.component_current(c).value; });
  sim.run();
  EXPECT_GT(burst, 500.0);  // Fig. 6 spike
  EXPECT_LT(decay, 200.0);  // rapid descent
  EXPECT_GT(decay, 0.0);
}

TEST(D2dEnergyProfile, DefaultsMatchTableIII) {
  const D2dEnergyProfile p;
  EXPECT_DOUBLE_EQ(p.ue_discovery.value, 132.24);
  EXPECT_DOUBLE_EQ(p.relay_discovery.value, 122.50);
  EXPECT_DOUBLE_EQ(p.ue_connection.value, 63.74);
  EXPECT_DOUBLE_EQ(p.relay_connection.value, 60.29);
  EXPECT_DOUBLE_EQ(p.ue_send_reference.value, 73.09);
}

TEST(D2dEnergyProfile, SendChargeAtReferenceDistance) {
  const D2dEnergyProfile p;
  EXPECT_NEAR(
      p.send_charge(net::kStandardHeartbeatSize, p.reference_distance).value,
      73.09, 1e-9);
}

TEST(D2dEnergyProfile, SendChargeGrowsQuadraticallyWithDistance) {
  const D2dEnergyProfile p;
  const double at1 = p.send_charge(Bytes{54}, Meters{1.0}).value;
  const double at5 = p.send_charge(Bytes{54}, Meters{5.0}).value;
  const double at10 = p.send_charge(Bytes{54}, Meters{10.0}).value;
  const double at15 = p.send_charge(Bytes{54}, Meters{15.0}).value;
  EXPECT_LT(at1, at5);
  EXPECT_LT(at5, at10);
  EXPECT_LT(at10, at15);
  // Fig. 12: at 15 m a D2D send costs several times the reference —
  // beyond the cellular break-even.
  EXPECT_GT(at15, 800.0);
  // Quadratic ratio check: (at10-at1)/(at5-at1) ≈ (9²)/(4²).
  EXPECT_NEAR((at10 - at1) / (at5 - at1), 81.0 / 16.0, 0.01);
}

TEST(D2dEnergyProfile, SendChargeBelowReferenceClamped) {
  const D2dEnergyProfile p;
  EXPECT_DOUBLE_EQ(p.send_charge(Bytes{54}, Meters{0.2}).value, 73.09);
}

TEST(D2dEnergyProfile, SizeHasMinorEffect) {
  // Fig. 13: 1x..5x the standard size stays "almost constant".
  const D2dEnergyProfile p;
  const double x1 = p.send_charge(Bytes{54}, Meters{1.0}).value;
  const double x5 = p.send_charge(Bytes{270}, Meters{1.0}).value;
  EXPECT_GT(x5, x1);
  EXPECT_LT((x5 - x1) / x1, 0.2);  // < 20 % growth across 5x size
}

TEST(D2dEnergyProfile, ReceiveChargeMatchesTableIvSlope) {
  const D2dEnergyProfile p;
  EXPECT_NEAR(p.receive_charge(Bytes{54}).value, 131.3, 1e-9);
}

}  // namespace
}  // namespace d2dhb::d2d
