// The protocol story of a pair run, read from what every run already
// keeps: registry counters show all four layers at work, the relay's
// link comes up before its first flush, and each phone's RRC state
// sampler walks only the edges of the state machine, in time order,
// from IDLE back to IDLE.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "core/original_agent.hpp"
#include "core/relay_agent.hpp"
#include "core/ue_agent.hpp"
#include "radio/cellular_modem.hpp"
#include "scenario/compressed_pair.hpp"
#include "scenario/scenario.hpp"

namespace d2dhb::scenario {
namespace {

constexpr double kPeriod = 20.0;

apps::AppProfile compressed_app() {
  apps::AppProfile app = apps::standard_app();
  app.heartbeat_period = seconds(kPeriod);
  app.expiry = seconds(kPeriod);
  return app;
}

core::Phone& add_static_phone(Scenario& world, double x) {
  core::PhoneConfig pc;
  pc.mobility =
      std::make_unique<mobility::StaticMobility>(mobility::Vec2{x, 0.0});
  return world.add_phone(std::move(pc));
}

TEST(PairProtocol, PairRunActivatesAllFourLayers) {
  CompressedPairConfig config;
  config.transmissions = 3;
  const PairMetrics run = run_d2d_pair(config);
  const metrics::Snapshot& snap = run.metrics;
  EXPECT_GT(snap.counter_total("rrc.transitions"), 0u);
  EXPECT_GT(snap.counter_total("d2d.links_established"), 0u);
  EXPECT_GT(snap.counter_total("scheduler.flushed_messages"), 0u);
  EXPECT_GT(snap.counter_total("ue.matches"), 0u);
}

TEST(PairProtocol, LinkUpPrecedesFirstFlush) {
  // run_d2d_pair's star with one UE at 1 m, stepped one event at a
  // time so each first is read at the instant it happens.
  Scenario world;
  core::Phone& relay_phone = add_static_phone(world, 0.0);
  core::Phone& ue_phone = add_static_phone(world, 1.0);
  core::RelayAgent::Params relay_params;
  relay_params.own_app = compressed_app();
  relay_params.scheduler.capacity = 7;
  relay_params.scheduler.max_own_delay = seconds(kPeriod);
  relay_params.scheduler.deadline_margin = seconds(kPeriod / 10.0);
  core::RelayAgent& relay = world.add_relay(relay_phone, relay_params);
  core::UeAgent::Params ue_params;
  ue_params.app = compressed_app();
  ue_params.feedback_timeout = seconds(1.5 * kPeriod + 10.0);
  core::UeAgent& ue = world.add_ue(ue_phone, ue_params);
  relay.own_app().set_max_emissions(2);
  ue.app().set_max_emissions(2);
  relay.start();
  ue.start(seconds(kPeriod));

  sim::Simulator& sim = world.sim();
  std::optional<TimePoint> link_up;
  std::optional<TimePoint> first_flush;
  while (!first_flush && sim.now() < TimePoint{} + seconds(120) &&
         sim.step()) {
    if (!link_up && relay_phone.wifi().link_count() > 0) link_up = sim.now();
    if (relay.scheduler().stats().flushes() > 0) first_flush = sim.now();
  }
  ASSERT_TRUE(link_up.has_value());
  ASSERT_TRUE(first_flush.has_value());
  EXPECT_LT(*link_up, *first_flush);
}

TEST(PairProtocol, RrcWalkIsLegal) {
  // run_original_pair's two phones, three heartbeats each, with the
  // registry's samplers on: `rrc.state` records every state entered.
  Scenario world;
  world.sim().metrics().set_sampling_enabled(true);
  for (const double x : {0.0, 1.0}) {
    core::OriginalAgent& agent =
        world.add_original(add_static_phone(world, x), compressed_app());
    agent.apps().front()->set_max_emissions(3);
    agent.start();
  }
  world.sim().run_until(TimePoint{} + seconds(4 * kPeriod + 30.0));

  using radio::RrcState;
  // The normal RRC cycle; neither fast dormancy nor a forced release
  // happens in an original pair.
  const std::set<std::pair<RrcState, RrcState>> legal{
      {RrcState::idle, RrcState::promoting},
      {RrcState::low, RrcState::promoting},
      {RrcState::promoting, RrcState::high},
      {RrcState::high, RrcState::transmitting},
      {RrcState::transmitting, RrcState::high},
      {RrcState::high, RrcState::low},
      {RrcState::low, RrcState::idle},
  };
  const metrics::Snapshot snap = world.metrics_snapshot();
  std::map<std::uint64_t, std::size_t> walked;
  for (const metrics::SnapshotEntry& e : snap.entries) {
    if (e.name != "rrc.state") continue;
    RrcState state = RrcState::idle;  // phones start idle
    double last_t = 0.0;
    for (const metrics::Sampler::Sample& s : e.samples) {
      const auto next = static_cast<RrcState>(s.v);
      EXPECT_TRUE(legal.count({state, next}))
          << "node " << e.labels.node << " at " << s.t << " s: "
          << radio::to_string(state) << " -> " << radio::to_string(next);
      EXPECT_LE(last_t, s.t) << "node " << e.labels.node;
      state = next;
      last_t = s.t;
    }
    // Everyone ends idle once traffic stops.
    EXPECT_EQ(state, RrcState::idle) << "node " << e.labels.node;
    walked[e.labels.node] = e.samples.size();
  }
  ASSERT_EQ(walked.size(), 2u);
  for (const auto& [node, transitions] : walked) {
    EXPECT_GT(transitions, 0u) << "node " << node;
  }
}

}  // namespace
}  // namespace d2dhb::scenario
