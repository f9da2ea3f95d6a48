#include "d2d/medium.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "d2d/wifi_direct.hpp"
#include "energy/energy_meter.hpp"
#include "mobility/mobility.hpp"
#include "sim/simulator.hpp"
#include "world/node_table.hpp"

namespace d2dhb::d2d {
namespace {

/// Registers `id` in the node table homed to `strip`, the way Scenario
/// homes its phones before their radios attach (attach keeps the
/// table's shard column).
std::unique_ptr<mobility::MobilityModel> home(
    world::NodeTable& nodes, NodeId id,
    std::unique_ptr<mobility::MobilityModel> model, std::uint32_t strip) {
  nodes.add(id, model.get());
  nodes.set_shard(id, strip);
  return model;
}

// Minimal device bundle for medium/radio tests.
struct TestPhone {
  TestPhone(sim::Simulator& sim, WifiDirectMedium& medium, std::uint64_t id,
            mobility::Vec2 pos, std::uint32_t strip = 0)
      : TestPhone(sim, medium, id,
                  std::make_unique<mobility::StaticMobility>(pos), strip) {}
  TestPhone(sim::Simulator& sim, WifiDirectMedium& medium, std::uint64_t id,
            std::unique_ptr<mobility::MobilityModel> model,
            std::uint32_t strip = 0)
      : meter(sim),
        mobility(home(medium.nodes(), NodeId{id}, std::move(model), strip)),
        radio(sim, NodeId{id}, medium, *mobility, meter, D2dEnergyProfile{},
              Rng{id}) {}

  energy::EnergyMeter meter;
  std::unique_ptr<mobility::MobilityModel> mobility;
  WifiDirectRadio radio;
};

/// One discovered peer, flattened for comparison: node, noisy distance,
/// and the advert it carried.
using ScanRow = std::tuple<std::uint64_t, double, bool, std::uint32_t>;

std::vector<ScanRow> rows(const std::vector<DiscoveredPeer>& peers) {
  std::vector<ScanRow> out;
  for (const DiscoveredPeer& p : peers) {
    out.emplace_back(p.node.value, p.estimated_distance.value,
                     p.advert.offers_relay, p.advert.capacity_remaining);
  }
  return out;
}

/// Brute-force oracle for scan_from: walks every attached radio in
/// NodeId order and keeps the ones homed to the scanner's strip,
/// within range and listening; then applies the miss and noise draws
/// from `lane`, which mirrors the scanner's strip lane.
std::vector<ScanRow> brute_force_scan(const WifiDirectMedium& medium,
                                      NodeId scanner, TimePoint now,
                                      Rng& lane) {
  std::vector<ScanRow> found;
  const world::NodeTable& nodes = medium.nodes();
  const WifiDirectMedium::Params& params = medium.params();
  const mobility::Vec2 origin = nodes.position_of(scanner, now);
  for (std::uint64_t id = 1; id < nodes.id_limit(); ++id) {
    const NodeId node{id};
    const WifiDirectRadio* peer = medium.radio(node);
    if (id == scanner.value || peer == nullptr ||
        nodes.shard_of(node) != nodes.shard_of(scanner)) {
      continue;
    }
    const double d =
        mobility::distance(origin, nodes.position_of(node, now)).value;
    if (d > params.range.value || !peer->listening()) continue;
    if (lane.chance(params.discovery_miss_probability)) continue;
    const double noise = lane.normal(0.0, params.rssi_noise_stddev_m);
    found.emplace_back(id, std::max(0.0, d + noise),
                       peer->advert().offers_relay,
                       peer->advert().capacity_remaining);
  }
  return found;
}

/// 30 m range, 0.5 m RSSI noise, 30% per-peer discovery misses.
const WifiDirectMedium::Params kNoisy{Meters{30.0}, 0.5, 0.3};

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : medium_(sim_, nodes_, WifiDirectMedium::Params{}, Rng{99}) {}

  sim::Simulator sim_;
  world::NodeTable nodes_;
  WifiDirectMedium medium_;
};

TEST_F(MediumTest, DistanceBetweenRegisteredRadios) {
  TestPhone a{sim_, medium_, 1, {0.0, 0.0}};
  TestPhone b{sim_, medium_, 2, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(medium_.distance(NodeId{1}, NodeId{2}).value, 5.0);
  EXPECT_TRUE(medium_.in_range(NodeId{1}, NodeId{2}));
}

TEST_F(MediumTest, OutOfRangeBeyond30m) {
  TestPhone a{sim_, medium_, 1, {0.0, 0.0}};
  TestPhone b{sim_, medium_, 2, {31.0, 0.0}};
  EXPECT_FALSE(medium_.in_range(NodeId{1}, NodeId{2}));
}

TEST_F(MediumTest, UnknownNodeThrows) {
  TestPhone a{sim_, medium_, 1, {0.0, 0.0}};
  EXPECT_THROW(medium_.distance(NodeId{1}, NodeId{9}), std::out_of_range);
  EXPECT_THROW(medium_.position_of(NodeId{9}), std::out_of_range);
}

TEST_F(MediumTest, ScanFindsOnlyListeningPeersInRange) {
  TestPhone scanner{sim_, medium_, 1, {0.0, 0.0}};
  TestPhone listening_near{sim_, medium_, 2, {5.0, 0.0}};
  TestPhone silent_near{sim_, medium_, 3, {5.0, 5.0}};
  TestPhone listening_far{sim_, medium_, 4, {100.0, 0.0}};
  listening_near.radio.set_listening(true);
  listening_far.radio.set_listening(true);

  const auto peers = medium_.scan_from(NodeId{1});
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].node, NodeId{2});
}

TEST_F(MediumTest, ScanCarriesAdvertAndNoisyDistance) {
  TestPhone scanner{sim_, medium_, 1, {0.0, 0.0}};
  TestPhone relay{sim_, medium_, 2, {10.0, 0.0}};
  relay.radio.set_listening(true);
  relay.radio.set_advert(RelayAdvert{true, 5});

  const auto peers = medium_.scan_from(NodeId{1});
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_TRUE(peers[0].advert.offers_relay);
  EXPECT_EQ(peers[0].advert.capacity_remaining, 5u);
  // RSSI noise is sub-meter by default.
  EXPECT_NEAR(peers[0].estimated_distance.value, 10.0, 2.0);
}

TEST_F(MediumTest, DetachedRadioDisappears) {
  auto phone = std::make_unique<TestPhone>(sim_, medium_, 2,
                                           mobility::Vec2{1.0, 0.0});
  phone->radio.set_listening(true);
  TestPhone scanner{sim_, medium_, 1, {0.0, 0.0}};
  EXPECT_EQ(medium_.scan_from(NodeId{1}).size(), 1u);
  phone.reset();  // destructor detaches
  EXPECT_EQ(medium_.scan_from(NodeId{1}).size(), 0u);
  EXPECT_EQ(medium_.radio(NodeId{2}), nullptr);
}

TEST_F(MediumTest, DiscoveryMissProbabilityDropsPeers) {
  world::NodeTable flaky_nodes;
  WifiDirectMedium flaky{sim_, flaky_nodes,
                         WifiDirectMedium::Params{Meters{30.0}, 0.0, 1.0},
                         Rng{5}};
  TestPhone scanner{sim_, flaky, 1, {0.0, 0.0}};
  TestPhone relay{sim_, flaky, 2, {1.0, 0.0}};
  relay.radio.set_listening(true);
  EXPECT_TRUE(flaky.scan_from(NodeId{1}).empty());
}

TEST_F(MediumTest, ScanResultsAreInAscendingNodeIdOrder) {
  TestPhone scanner{sim_, medium_, 3, {0.0, 0.0}};
  TestPhone far_id{sim_, medium_, 9, {2.0, 0.0}};
  TestPhone low_id{sim_, medium_, 1, {4.0, 0.0}};
  TestPhone mid_id{sim_, medium_, 5, {6.0, 0.0}};
  far_id.radio.set_listening(true);
  low_id.radio.set_listening(true);
  mid_id.radio.set_listening(true);

  const auto peers = medium_.scan_from(NodeId{3});
  ASSERT_EQ(peers.size(), 3u);
  EXPECT_EQ(peers[0].node, NodeId{1});
  EXPECT_EQ(peers[1].node, NodeId{5});
  EXPECT_EQ(peers[2].node, NodeId{9});
}

TEST_F(MediumTest, LostPeersFlagsDetachedAndOutOfRange) {
  TestPhone owner{sim_, medium_, 1, {0.0, 0.0}};
  TestPhone near{sim_, medium_, 2, {5.0, 0.0}};
  TestPhone far{sim_, medium_, 3, {100.0, 0.0}};
  auto doomed = std::make_unique<TestPhone>(sim_, medium_, 4,
                                            mobility::Vec2{6.0, 0.0});
  const std::vector<NodeId> peers{NodeId{2}, NodeId{3}, NodeId{4}};
  EXPECT_EQ(medium_.lost_peers(NodeId{1}, peers),
            (std::vector<NodeId>{NodeId{3}}));
  doomed.reset();  // detaches
  EXPECT_EQ(medium_.lost_peers(NodeId{1}, peers),
            (std::vector<NodeId>{NodeId{3}, NodeId{4}}));
}

TEST_F(MediumTest, UnknownNodeErrorsNameTheNode) {
  try {
    medium_.position_of(NodeId{41});
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("41"), std::string::npos);
  }
  // A scan from a detached/unknown node is a no-op, not an error — a
  // pending scan timer may outlive its radio.
  EXPECT_TRUE(medium_.scan_from(NodeId{41}).empty());
}

/// A seeded random world of 60 radios on one strip, 90 m square (three
/// ranges, so scans see partial neighbourhoods), a third of them
/// silent and some advertising relay capacity. Every radio scans at
/// each of several times and every scan must equal the oracle's. The
/// mobile arm adds a scan every 0.25 s for 20 s: walkers re-bin every
/// 5 s at most (half-skin 7.5 m at 1.5 m/s), so scans land both inside
/// and past their re-bin deadlines.
void expect_scans_match_oracle(bool mobile, std::uint64_t seed) {
  constexpr double kArea = 90.0;
  sim::Simulator sim;
  world::NodeTable nodes;
  WifiDirectMedium medium{sim, nodes, kNoisy, Rng{seed}};
  Rng layout{seed + 1};
  std::vector<std::unique_ptr<TestPhone>> phones;
  for (std::uint64_t id = 1; id <= 60; ++id) {
    const mobility::Vec2 start{layout.uniform(0.0, kArea),
                               layout.uniform(0.0, kArea)};
    std::unique_ptr<mobility::MobilityModel> model =
        std::make_unique<mobility::StaticMobility>(start);
    if (mobile) {
      mobility::RandomWaypoint::Params params;
      params.area_max = {kArea, kArea};
      model = std::make_unique<mobility::RandomWaypoint>(params, start,
                                                         layout.fork());
    }
    phones.push_back(
        std::make_unique<TestPhone>(sim, medium, id, std::move(model)));
    phones.back()->radio.set_listening(id % 3 != 0);
    phones.back()->radio.set_advert(
        RelayAdvert{id % 4 == 0, static_cast<std::uint32_t>(id % 7)});
  }
  Rng lane{seed};  // a one-strip medium's only lane keeps its own rng
  std::vector<double> instants{0.0, 7.0, 60.0, 300.0, 900.0};
  for (int step = 1; mobile && step <= 80; ++step) {
    instants.push_back(900.0 + 0.25 * step);
  }
  for (const double at_s : instants) {
    sim.run_until(TimePoint{} + seconds(at_s));
    for (std::uint64_t id = 1; id <= phones.size(); ++id) {
      const auto expected =
          brute_force_scan(medium, NodeId{id}, sim.now(), lane);
      EXPECT_EQ(rows(medium.scan_from(NodeId{id})), expected)
          << "node " << id << " at " << at_s << " s";
    }
  }
}

TEST_F(MediumTest, GridScanMatchesBruteForceOracle) {
  expect_scans_match_oracle(false, 4242);
}

TEST_F(MediumTest, MobileGridScanMatchesBruteForceOracle) {
  expect_scans_match_oracle(true, 977);
}

// Strip confinement on a two-strip world: D2D never connects nodes
// homed to different strips, even when they stand within range. This
// pins the current contract; making results independent of the strip
// count means changing it on purpose.
class TwoStripMediumTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSeed = 31;

  TwoStripMediumTest()
      : medium_(sim_, nodes_, kNoisy, Rng{kSeed}),
        scanner_(sim_, medium_, 1, {0.0, 0.0}, 0),
        near_(sim_, medium_, 2, {5.0, 0.0}, 0),
        relay_(sim_, medium_, 4, {10.0, 3.0}, 0),
        across_(sim_, medium_, 3, {8.0, 0.0}, 1),
        across_peer_(sim_, medium_, 5, {12.0, 0.0}, 1) {
    for (TestPhone* phone : {&near_, &relay_, &across_, &across_peer_}) {
      phone->radio.set_listening(true);
    }
    relay_.radio.set_advert(RelayAdvert{true, 3});
  }

  sim::Simulator sim_{2};
  world::NodeTable nodes_;
  WifiDirectMedium medium_;
  TestPhone scanner_;      // #1, strip 0
  TestPhone near_;         // #2, strip 0
  TestPhone relay_;        // #4, strip 0
  TestPhone across_;       // #3, strip 1, 8 m from the scanner
  TestPhone across_peer_;  // #5, strip 1
};

TEST_F(TwoStripMediumTest, CrossStripPeerIsNeverInRangeAndAlwaysLost) {
  ASSERT_LE(medium_.distance(NodeId{1}, NodeId{3}).value,
            medium_.params().range.value);
  EXPECT_FALSE(medium_.in_range(NodeId{1}, NodeId{3}));
  EXPECT_FALSE(medium_.in_range(NodeId{3}, NodeId{1}));
  EXPECT_TRUE(medium_.in_range(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(medium_.in_range(NodeId{3}, NodeId{5}));
  EXPECT_EQ(medium_.lost_peers(NodeId{1}, {NodeId{2}, NodeId{3}, NodeId{4}}),
            (std::vector<NodeId>{NodeId{3}}));
  EXPECT_EQ(medium_.lost_peers(NodeId{3}, {NodeId{1}, NodeId{5}}),
            (std::vector<NodeId>{NodeId{1}}));
}

TEST_F(TwoStripMediumTest, ScanSkipsCrossStripPeersAndMatchesOracle) {
  // The medium's strip lanes: strip 0 draws from a fork of the seeded
  // stream, the last strip from that stream itself, after the fork.
  Rng seeded{kSeed};
  Rng lanes[2] = {seeded.fork(), seeded};
  for (int scan = 0; scan < 8; ++scan) {
    const auto from_strip0 = rows(medium_.scan_from(NodeId{1}));
    EXPECT_EQ(from_strip0,
              brute_force_scan(medium_, NodeId{1}, sim_.now(), lanes[0]));
    const auto from_strip1 = rows(medium_.scan_from(NodeId{3}));
    EXPECT_EQ(from_strip1,
              brute_force_scan(medium_, NodeId{3}, sim_.now(), lanes[1]));
    for (const ScanRow& row : from_strip0) {
      EXPECT_NE(std::get<0>(row), 3u);
      EXPECT_NE(std::get<0>(row), 5u);
    }
    for (const ScanRow& row : from_strip1) {
      EXPECT_EQ(std::get<0>(row), 5u);
    }
  }
}

}  // namespace
}  // namespace d2dhb::d2d
