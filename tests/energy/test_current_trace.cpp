#include "energy/current_trace.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace d2dhb::energy {
namespace {

TEST(CurrentTrace, SamplesAtConfiguredInterval) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  meter.register_component("baseline", MilliAmps{200.0});
  CurrentTraceRecorder rec{sim, meter, milliseconds(100)};
  rec.start();
  sim.run_until(TimePoint{} + seconds(1));
  rec.stop();
  // t=0 plus 10 samples at 0.1 s.
  EXPECT_EQ(rec.samples().size(), 11u);
  for (const auto& s : rec.samples()) {
    EXPECT_DOUBLE_EQ(s.current.value, 200.0);
  }
}

TEST(CurrentTrace, CapturesTransientSpike) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{100.0});
  CurrentTraceRecorder rec{sim, meter, milliseconds(100)};
  rec.start();
  sim.schedule_after(milliseconds(300), [&] {
    meter.add_load(c, MilliAmps{500.0}, milliseconds(250));
  });
  sim.run_until(TimePoint{} + seconds(1));
  double peak = 0.0;
  for (const auto& s : rec.samples()) peak = std::max(peak, s.current.value);
  EXPECT_DOUBLE_EQ(peak, 600.0);
}

// Reads are right-continuous: a sample taken exactly at a segment
// boundary reads the segment that starts there.
TEST(CurrentTrace, SampleAtSegmentBoundaryReadsStartingSegment) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{100.0});
  CurrentTraceRecorder rec{sim, meter, milliseconds(100)};
  const std::vector<EnergyMeter::Load> loads{
      {Duration::zero(), MilliAmps{50.0}, milliseconds(100)},
      {milliseconds(100), MilliAmps{500.0}, milliseconds(200)}};
  meter.add_loads(c, loads);
  rec.start();
  sim.run_until(TimePoint{} + milliseconds(400));
  rec.stop();
  ASSERT_EQ(rec.samples().size(), 5u);
  EXPECT_DOUBLE_EQ(rec.samples()[0].current.value, 150.0);  // wake
  EXPECT_DOUBLE_EQ(rec.samples()[1].current.value, 600.0);  // burst starts
  EXPECT_DOUBLE_EQ(rec.samples()[2].current.value, 600.0);
  EXPECT_DOUBLE_EQ(rec.samples()[3].current.value, 100.0);  // burst ended
  EXPECT_DOUBLE_EQ(rec.samples()[4].current.value, 100.0);
}

TEST(CurrentTrace, SeriesConversion) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  meter.register_component("baseline", MilliAmps{40.0});
  CurrentTraceRecorder rec{sim, meter};
  rec.start();
  sim.run_until(TimePoint{} + milliseconds(500));
  const Series s = rec.as_series("trace");
  EXPECT_EQ(s.name, "trace");
  ASSERT_EQ(s.xs.size(), rec.samples().size());
  EXPECT_DOUBLE_EQ(s.xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(s.ys.front(), 40.0);
}

TEST(CurrentTrace, SampledIntegralMatchesMeterForConstantDraw) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  meter.register_component("baseline", MilliAmps{360.0});
  CurrentTraceRecorder rec{sim, meter, milliseconds(100)};
  rec.start();
  sim.run_until(TimePoint{} + seconds(10));
  rec.stop();
  // Constant draw: trapezoid over samples is exact.
  EXPECT_NEAR(rec.integrate_samples().value, meter.total_charge().value,
              1e-6);
}

TEST(CurrentTrace, ClearDropsSamples) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  meter.register_component("baseline", MilliAmps{10.0});
  CurrentTraceRecorder rec{sim, meter};
  rec.start();
  sim.run_until(TimePoint{} + seconds(1));
  rec.stop();
  rec.clear();
  EXPECT_TRUE(rec.samples().empty());
  EXPECT_DOUBLE_EQ(rec.integrate_samples().value, 0.0);
}

}  // namespace
}  // namespace d2dhb::energy
