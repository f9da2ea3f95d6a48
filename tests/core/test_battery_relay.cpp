// Battery-aware relay behaviour (Section III-C): advertised capacity
// scales with remaining charge; exhausted relays retire and their UEs
// fall back.
#include <gtest/gtest.h>

#include "core/relay_agent.hpp"
#include "core/ue_agent.hpp"
#include "scenario/scenario.hpp"

namespace d2dhb::core {
namespace {

class BatteryRelayTest : public ::testing::Test {
 protected:
  Phone& add_phone(double x) {
    PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{x, 0.0});
    return world_.add_phone(std::move(pc));
  }

  apps::AppProfile app(double period_s = 30.0) {
    apps::AppProfile a = apps::standard_app();
    a.heartbeat_period = seconds(period_s);
    a.expiry = seconds(period_s);
    return a;
  }

  RelayAgent::Params relay_params(double battery_uah) {
    RelayAgent::Params p;
    p.own_app = app();
    p.scheduler.max_own_delay = seconds(30);
    p.scheduler.deadline_margin = seconds(3);
    p.battery_capacity = MicroAmpHours{battery_uah};
    p.battery_poll_interval = seconds(10);
    return p;
  }

  scenario::Scenario world_;
};

TEST_F(BatteryRelayTest, NoBatteryMeansFullLevel) {
  Phone& phone = add_phone(0);
  RelayAgent::Params p = relay_params(0.0);
  p.battery_capacity = MicroAmpHours{0.0};
  RelayAgent& relay = world_.add_relay(phone, p);
  relay.start();
  world_.sim().run_until(TimePoint{} + seconds(120));
  EXPECT_DOUBLE_EQ(relay.battery_level(), 1.0);
  EXPECT_FALSE(relay.retired());
}

TEST_F(BatteryRelayTest, AdvertisedCapacityScalesWithBattery) {
  Phone& phone = add_phone(0);
  // Drain: 40 mA baseline (11.1 uAh/s) + one 598 uAh cellular heartbeat
  // per 30 s period = ~31 uAh/s. 20 000 uAh is ~44 % gone by t = 360 s.
  RelayAgent& relay = world_.add_relay(phone, relay_params(20000.0));
  relay.start();
  EXPECT_EQ(phone.wifi().advert().capacity_remaining, 7u);
  world_.sim().run_until(TimePoint{} + seconds(360));
  const auto advertised = phone.wifi().advert().capacity_remaining;
  EXPECT_LT(advertised, 7u);
  EXPECT_GT(advertised, 0u);
  EXPECT_FALSE(relay.retired());
}

TEST_F(BatteryRelayTest, RetiresBelowThresholdAndStopsAdvertising) {
  Phone& phone = add_phone(0);
  RelayAgent& relay = world_.add_relay(phone, relay_params(4000.0));
  relay.start();
  world_.sim().run_until(TimePoint{} + seconds(600));
  EXPECT_TRUE(relay.retired());
  EXPECT_FALSE(relay.running());
  EXPECT_FALSE(phone.wifi().advert().offers_relay);
  // Retirement is sticky: start() is refused.
  relay.start();
  EXPECT_FALSE(relay.running());
}

TEST_F(BatteryRelayTest, UeSurvivesRelayRetirement) {
  Phone& relay_phone = add_phone(0);
  Phone& ue_phone = add_phone(1);
  RelayAgent& relay = world_.add_relay(relay_phone, relay_params(6000.0));
  UeAgent::Params up;
  up.app = app();
  up.feedback_timeout = seconds(45);
  up.retry_backoff = seconds(60);
  UeAgent& ue = world_.add_ue(ue_phone, up);
  world_.register_session(ue_phone, 3 * seconds(30));
  relay.start();
  ue.start();
  world_.sim().run_until(TimePoint{} + seconds(1200));

  EXPECT_TRUE(relay.retired());
  // The UE noticed the disconnect and kept its session alive directly.
  EXPECT_GT(ue.stats().sent_via_cellular + ue.stats().fallback_cellular,
            0u);
  const auto& s =
      world_.server().stats(ue_phone.id(), AppId{ue_phone.id().value});
  EXPECT_EQ(s.offline_events, 0u);
}

TEST_F(BatteryRelayTest, LowBatteryRelayRejectedByCapacityPrejudgment) {
  Phone& relay_phone = add_phone(0);
  Phone& ue_phone = add_phone(1);
  // Battery drained enough that floor(7 · level) = 0 (level < 1/7) but
  // still above the 0.1 retirement threshold: after 28 aggregated own
  // heartbeats plus baseline draw, a 30 000 uAh battery sits at level
  // ~0.116 at t = 880 s.
  RelayAgent& relay = world_.add_relay(relay_phone, relay_params(30000.0));
  relay.start();
  world_.sim().run_until(TimePoint{} + seconds(880));
  ASSERT_FALSE(relay.retired());
  EXPECT_EQ(relay_phone.wifi().advert().capacity_remaining, 0u);

  UeAgent::Params up;
  up.app = app();
  UeAgent& ue = world_.add_ue(ue_phone, up);
  ue.start();
  world_.sim().run_until(world_.sim().now() + seconds(60));
  // The detector's require_capacity pre-judgment refuses the match.
  EXPECT_EQ(ue.stats().matches, 0u);
  EXPECT_GT(ue.stats().sent_via_cellular, 0u);
}

// Observing the battery must not change the run: a metrics snapshot
// reads the battery.level gauge, and only the periodic poll may retire.
TEST_F(BatteryRelayTest, SnapshotBetweenPollsDoesNotRetire) {
  // ~31 uAh/s drains 4000 uAh by ~130 s; the only poll before 900 s is
  // at 600 s.
  RelayAgent::Params params = relay_params(4000.0);
  params.retire_battery_level = 0.0;
  params.battery_poll_interval = seconds(600);
  struct Outcome {
    bool retired_before_poll{false};
    bool retired{false};
    RelayAgent::Stats stats;
    std::uint64_t delivered{0};
    std::uint64_t events{0};
  };
  const auto run = [&](bool snapshot) {
    scenario::Scenario world;
    PhoneConfig pc;
    pc.mobility = std::make_unique<mobility::StaticMobility>(
        mobility::Vec2{0.0, 0.0});
    Phone& phone = world.add_phone(std::move(pc));
    RelayAgent& relay = world.add_relay(phone, params);
    world.register_session(phone, 3 * seconds(30));
    relay.start();
    world.sim().run_until(TimePoint{} + seconds(400));
    if (snapshot) {
      const metrics::Snapshot snap = world.metrics_snapshot();
      EXPECT_EQ(snap.gauge("battery.level", {phone.id().value, -1, "relay"}),
                0.0);
      EXPECT_EQ(relay.battery_level(), 0.0);
    }
    Outcome out;
    out.retired_before_poll = relay.retired();
    world.sim().run_until(TimePoint{} + seconds(900));
    out.retired = relay.retired();
    out.stats = relay.stats();
    out.delivered =
        world.server().stats(phone.id(), AppId{phone.id().value}).delivered;
    out.events = world.sim().executed_events();
    return out;
  };
  const Outcome observed = run(true);
  const Outcome reference = run(false);
  EXPECT_FALSE(observed.retired_before_poll);
  EXPECT_TRUE(observed.retired);
  EXPECT_EQ(observed.retired_before_poll, reference.retired_before_poll);
  EXPECT_EQ(observed.retired, reference.retired);
  EXPECT_EQ(observed.stats.own_heartbeats, reference.stats.own_heartbeats);
  EXPECT_EQ(observed.stats.bundles_sent, reference.stats.bundles_sent);
  EXPECT_EQ(observed.stats.heartbeats_uplinked,
            reference.stats.heartbeats_uplinked);
  EXPECT_GT(observed.delivered, 0u);
  EXPECT_EQ(observed.delivered, reference.delivered);
  EXPECT_EQ(observed.events, reference.events);
}

}  // namespace
}  // namespace d2dhb::core
