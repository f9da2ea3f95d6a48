// Whole-scenario tripwire for the event diet: the city preset places
// every phone statically, so no D2D link can leave range and no range
// poll may ever be armed, and energy phases schedule no events. A poll
// re-armed on static links, or an event per energy-segment boundary,
// multiplies the event count several times over, so a ceiling on
// events per simulated phone-hour catches it; the count is
// deterministic, so the ceiling cannot flake.
#include <gtest/gtest.h>

#include "scenario/city.hpp"
#include "scenario/scenario.hpp"

namespace d2dhb::scenario {
namespace {

TEST(CityEventDiet, StaticCityNeverPollsLinks) {
  CityConfig config;
  config.phones = 2000;
  config.duration_s = 300.0;
  config.threads = 1;
  auto world = build_city(config);
  // The medium audit also asserts, per radio, that a range poll is
  // armed exactly while one of its links has a moving end.
  world->sim().set_audit_interval(5000);
  const CityMetrics m = run_city(*world, config);

  const metrics::Snapshot snap = world->metrics_snapshot();
  EXPECT_GT(snap.counter_total("d2d.links_established"), 0u);
  EXPECT_EQ(snap.counter_total("d2d.links_broken"), 0u);
  EXPECT_GT(m.forwarded_via_d2d, 0u);

  // Measured: 10,739 events = 64.4 per phone-hour (startup-heavy at
  // 300 s: discovery and connection dominate). The ceiling leaves ~16%
  // headroom. With one kernel event per energy-segment boundary the
  // same run is 143,212 events = 859.3 per phone-hour; with range polls
  // on the static links as well, 418,203 events = 2,509.2.
  const double phone_h =
      static_cast<double>(m.phones) * config.duration_s / 3600.0;
  const double per_phone_h = static_cast<double>(m.sim_events) / phone_h;
  EXPECT_LE(per_phone_h, 75.0) << m.sim_events << " events";
}

}  // namespace
}  // namespace d2dhb::scenario
