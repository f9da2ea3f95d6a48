#include "d2d/wifi_direct.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "energy/energy_meter.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::d2d {
namespace {

struct TestPhone {
  TestPhone(sim::Simulator& sim, WifiDirectMedium& medium, std::uint64_t id,
            std::unique_ptr<mobility::MobilityModel> mob)
      : meter(sim),
        mobility(std::move(mob)),
        radio(sim, NodeId{id}, medium, *mobility, meter, D2dEnergyProfile{},
              Rng{id}) {}

  static std::unique_ptr<TestPhone> at(sim::Simulator& sim,
                                       WifiDirectMedium& medium,
                                       std::uint64_t id, double x, double y) {
    return std::make_unique<TestPhone>(
        sim, medium, id,
        std::make_unique<mobility::StaticMobility>(mobility::Vec2{x, y}));
  }

  energy::EnergyMeter meter;
  std::unique_ptr<mobility::MobilityModel> mobility;
  WifiDirectRadio radio;
};

net::HeartbeatMessage heartbeat(std::uint64_t id, std::uint64_t origin) {
  net::HeartbeatMessage m;
  m.id = MessageId{id};
  m.origin = NodeId{origin};
  m.app = AppId{origin};
  m.size = net::kStandardHeartbeatSize;
  m.period = seconds(270);
  m.expiry = seconds(270);
  return m;
}

std::unique_ptr<TestPhone> walker(sim::Simulator& sim,
                                  WifiDirectMedium& medium, std::uint64_t id,
                                  mobility::Vec2 start,
                                  mobility::Vec2 velocity) {
  return std::make_unique<TestPhone>(
      sim, medium, id,
      std::make_unique<mobility::LinearMobility>(start, velocity));
}

class WifiDirectTest : public ::testing::Test {
 protected:
  WifiDirectTest() : medium_(sim_, nodes_, WifiDirectMedium::Params{}, Rng{77}) {}

  sim::Simulator sim_;
  world::NodeTable nodes_;
  WifiDirectMedium medium_;
};

TEST_F(WifiDirectTest, DiscoveryChargesBothSidesPerTableIII) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  relay->radio.set_listening(true);
  bool done = false;
  ue->radio.start_discovery(
      [&](const std::vector<DiscoveredPeer>& peers) {
        done = true;
        ASSERT_EQ(peers.size(), 1u);
        EXPECT_EQ(peers[0].node, NodeId{2});
      });
  sim_.run_until(sim_.now() + seconds(10));
  EXPECT_TRUE(done);
  EXPECT_NEAR(ue->radio.radio_charge().value, 132.24, 0.01);
  EXPECT_NEAR(relay->radio.radio_charge().value, 122.50, 0.01);
}

TEST_F(WifiDirectTest, ConnectFormsGroupWithIntentArbitration) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  relay->radio.set_listening(true);
  relay->radio.set_group_owner_intent(kMaxGroupOwnerIntent);
  ue->radio.set_group_owner_intent(0);

  GroupId group{};
  ue->radio.connect(NodeId{2}, [&](Result<GroupId> r) {
    ASSERT_TRUE(r.ok());
    group = r.value();
  });
  sim_.run_until(sim_.now() + seconds(4));
  EXPECT_TRUE(group.valid());
  EXPECT_TRUE(ue->radio.connected_to(NodeId{2}));
  EXPECT_TRUE(relay->radio.connected_to(NodeId{1}));
  EXPECT_TRUE(relay->radio.is_group_owner());
  EXPECT_FALSE(ue->radio.is_group_owner());
  EXPECT_EQ(ue->radio.group(), relay->radio.group());
}

TEST_F(WifiDirectTest, ConnectionEnergyMatchesTableIII) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  // Idle-connected draw starts after setup; allow a small margin.
  EXPECT_NEAR(ue->radio.radio_charge().value, 63.74, 1.0);
  EXPECT_NEAR(relay->radio.radio_charge().value, 60.29, 1.0);
}

TEST_F(WifiDirectTest, ConnectToSelfIsRejected) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  bool rejected = false;
  ue->radio.connect(NodeId{1}, [&](Result<GroupId> r) {
    rejected = !r.ok() && r.error().code == Errc::rejected;
  });
  EXPECT_TRUE(rejected);
  EXPECT_EQ(ue->radio.link_count(), 0u);
  // No energy was spent on the refused attempt.
  sim_.run_until(sim_.now() + seconds(5));
  EXPECT_DOUBLE_EQ(ue->radio.radio_charge().value, 0.0);
}

TEST_F(WifiDirectTest, ConnectToUnknownPeerFails) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  bool failed = false;
  ue->radio.connect(NodeId{42}, [&](Result<GroupId> r) {
    failed = !r.ok() && r.error().code == Errc::not_found;
  });
  EXPECT_TRUE(failed);
}

TEST_F(WifiDirectTest, ConnectBeyondRangeFails) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto far = TestPhone::at(sim_, medium_, 2, 50, 0);
  bool failed = false;
  far->radio.set_listening(true);
  ue->radio.connect(NodeId{2}, [&](Result<GroupId> r) {
    failed = !r.ok() && r.error().code == Errc::out_of_range;
  });
  EXPECT_TRUE(failed);
}

TEST_F(WifiDirectTest, ConnectIsIdempotentWhenAlreadyLinked) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  GroupId first{};
  ue->radio.connect(NodeId{2}, [&](Result<GroupId> r) { first = r.value(); });
  sim_.run_until(sim_.now() + seconds(4));
  GroupId second{};
  ue->radio.connect(NodeId{2},
                    [&](Result<GroupId> r) { second = r.value(); });
  EXPECT_EQ(first, second);
}

TEST_F(WifiDirectTest, SendDeliversHeartbeatAndChargesBothSides) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));

  const double ue_before = ue->radio.radio_charge().value;
  const double relay_before = relay->radio.radio_charge().value;
  net::HeartbeatMessage received;
  relay->radio.set_receive_handler(
      [&](const net::D2dPayload& p, NodeId from) {
        received = std::get<net::HeartbeatMessage>(p);
        EXPECT_EQ(from, NodeId{1});
      });
  bool sent_ok = false;
  ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(5, 1)},
                 [&](Status s) { sent_ok = s.ok(); });
  sim_.run_until(sim_.now() + seconds(4));
  EXPECT_TRUE(sent_ok);
  EXPECT_EQ(received.id, MessageId{5});
  EXPECT_NEAR(ue->radio.radio_charge().value - ue_before, 73.09, 1.5);
  EXPECT_NEAR(relay->radio.radio_charge().value - relay_before, 131.3, 1.5);
}

TEST_F(WifiDirectTest, SendWithoutLinkFails) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  bool failed = false;
  ue->radio.send(NodeId{2}, net::D2dPayload{heartbeat(1, 1)},
                 [&](Status s) {
                   failed = !s.ok() && s.error().code == Errc::disconnected;
                 });
  EXPECT_TRUE(failed);
}

TEST_F(WifiDirectTest, FeedbackAckTravelsAsControlFrame) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));

  net::FeedbackAck got;
  ue->radio.set_receive_handler([&](const net::D2dPayload& p, NodeId) {
    got = std::get<net::FeedbackAck>(p);
  });
  net::FeedbackAck ack;
  ack.relay = NodeId{2};
  ack.delivered = {MessageId{1}, MessageId{2}};
  relay->radio.send(NodeId{1}, net::D2dPayload{ack}, [](Status) {});
  sim_.run_until(sim_.now() + seconds(1));
  EXPECT_EQ(got.delivered.size(), 2u);
  EXPECT_EQ(got.relay, NodeId{2});
}

TEST_F(WifiDirectTest, MovingOutOfRangeBreaksLink) {
  auto ue = std::make_unique<TestPhone>(
      sim_, medium_, 1,
      std::make_unique<mobility::LinearMobility>(
          mobility::Vec2{0.0, 0.0}, mobility::Vec2{2.0, 0.0}));  // 2 m/s
  auto relay = TestPhone::at(sim_, medium_, 2, 0, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  ASSERT_TRUE(ue->radio.connected_to(NodeId{2}));

  NodeId lost{};
  ue->radio.set_disconnect_handler([&](NodeId peer) { lost = peer; });
  // Range is 30 m; at 2 m/s the link must break by t ~ 16 s.
  sim_.run_until(sim_.now() + seconds(20));
  EXPECT_EQ(lost, NodeId{2});
  EXPECT_FALSE(ue->radio.connected_to(NodeId{2}));
  EXPECT_FALSE(relay->radio.connected_to(NodeId{1}));
  EXPECT_EQ(ue->radio.link_count(), 0u);
}

TEST_F(WifiDirectTest, ExplicitDisconnectNotifiesBothSides) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));

  NodeId ue_lost{}, relay_lost{};
  ue->radio.set_disconnect_handler([&](NodeId p) { ue_lost = p; });
  relay->radio.set_disconnect_handler([&](NodeId p) { relay_lost = p; });
  ue->radio.disconnect(NodeId{2});
  EXPECT_EQ(ue_lost, NodeId{2});
  EXPECT_EQ(relay_lost, NodeId{1});
}

TEST_F(WifiDirectTest, GroupOwnerServesMultipleClients) {
  auto relay = TestPhone::at(sim_, medium_, 1, 0, 0);
  relay->radio.set_group_owner_intent(kMaxGroupOwnerIntent);
  auto ue_a = TestPhone::at(sim_, medium_, 2, 1, 0);
  auto ue_b = TestPhone::at(sim_, medium_, 3, 0, 1);
  ue_a->radio.connect(NodeId{1}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  ue_b->radio.connect(NodeId{1}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  EXPECT_EQ(relay->radio.link_count(), 2u);
  EXPECT_TRUE(relay->radio.is_group_owner());
  // Both clients joined the same group.
  EXPECT_EQ(ue_a->radio.group(), ue_b->radio.group());
}

TEST_F(WifiDirectTest, IdleConnectedDrawAccumulatesWhileLinked) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(4));
  const double before = ue->radio.radio_charge().value;
  sim_.run_until(sim_.now() + seconds(3600));
  // 1 mA for 1 h = 1000 µAh.
  EXPECT_NEAR(ue->radio.radio_charge().value - before, 1000.0, 1.0);
  ue->radio.disconnect(NodeId{2});
  const double after_disconnect = ue->radio.radio_charge().value;
  sim_.run_until(sim_.now() + seconds(3600));
  EXPECT_NEAR(ue->radio.radio_charge().value - after_disconnect, 0.0, 1e-6);
}

TEST_F(WifiDirectTest, StaticPairIsNeverPolled) {
  sim_.set_audit_interval(1);
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(10));
  ASSERT_TRUE(ue->radio.connected_to(NodeId{2}));

  // Neither end can move, so the hour passes without a single range
  // poll (two 1 Hz polls would be 7200 events).
  const std::uint64_t before = sim_.executed_events();
  sim_.run_until(sim_.now() + seconds(3600));
  EXPECT_LE(sim_.executed_events() - before, 5u);
  EXPECT_EQ(sim_.pending_events(), 0u);
  EXPECT_TRUE(ue->radio.connected_to(NodeId{2}));
  EXPECT_TRUE(relay->radio.connected_to(NodeId{1}));
}

TEST_F(WifiDirectTest, MovingLinkBreaksOnTheGridOfTheFirstLink) {
  sim_.set_audit_interval(1);
  auto relay = TestPhone::at(sim_, medium_, 1, 0, 0);
  relay->radio.set_group_owner_intent(kMaxGroupOwnerIntent);
  auto still = TestPhone::at(sim_, medium_, 2, 5, 0);
  // 1.5 m/s from (0, 1): leaves the 30 m range at t ~ 19.99 s.
  auto mover = walker(sim_, medium_, 3, {0.0, 1.0}, {1.5, 0.0});
  still->radio.connect(NodeId{1}, [](Result<GroupId>) {});  // up at 2.5 s
  sim_.run_until(TimePoint{} + seconds(3.2));
  mover->radio.connect(NodeId{1}, [](Result<GroupId>) {});  // up at 5.7 s
  sim_.run_until(TimePoint{} + seconds(10));
  ASSERT_EQ(relay->radio.link_count(), 2u);

  TimePoint broke{};
  relay->radio.set_disconnect_handler([&](NodeId peer) {
    EXPECT_EQ(peer, NodeId{3});
    broke = sim_.now();
  });
  sim_.run_until(TimePoint{} + seconds(40));
  // The relay's poll grid is anchored at its first (static) link, 2.5 s,
  // so it catches the exit at 20.5 s, before the mover's own grid
  // (5.7 s + k) would.
  EXPECT_EQ(broke, TimePoint{} + seconds(20.5));
  EXPECT_FALSE(mover->radio.connected_to(NodeId{1}));

  // The static link survives and nothing polls any more.
  EXPECT_TRUE(relay->radio.connected_to(NodeId{2}));
  EXPECT_TRUE(still->radio.connected_to(NodeId{1}));
  sim_.run_until(sim_.now() + seconds(5));
  EXPECT_EQ(sim_.pending_events(), 0u);
  const std::uint64_t before = sim_.executed_events();
  sim_.run_until(sim_.now() + seconds(3600));
  EXPECT_EQ(sim_.executed_events(), before);
}

TEST_F(WifiDirectTest, StaticRadioStartsPollingOnItsFirstMovingLink) {
  sim_.set_audit_interval(1);
  auto relay = TestPhone::at(sim_, medium_, 1, 0, 0);
  relay->radio.set_group_owner_intent(kMaxGroupOwnerIntent);
  auto still = TestPhone::at(sim_, medium_, 2, 5, 0);
  auto mover = walker(sim_, medium_, 3, {0.0, 1.0}, {0.01, 0.0});
  still->radio.connect(NodeId{1}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(10));
  ASSERT_EQ(relay->radio.link_count(), 1u);
  EXPECT_EQ(sim_.pending_events(), 0u);  // static link: no poll armed

  mover->radio.connect(NodeId{1}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(10));
  ASSERT_EQ(relay->radio.link_count(), 2u);
  // One poll armed on each end of the moving link: the relay's and the
  // mover's.
  EXPECT_EQ(sim_.pending_events(), 2u);
  const std::uint64_t before = sim_.executed_events();
  sim_.run_until(sim_.now() + seconds(10));
  EXPECT_EQ(sim_.executed_events() - before, 20u);
}

TEST_F(WifiDirectTest, DestroyedRadioLeavesNoLinkOnItsStaticPeer) {
  auto ue = TestPhone::at(sim_, medium_, 1, 0, 0);
  auto relay = TestPhone::at(sim_, medium_, 2, 1, 0);
  ue->radio.connect(NodeId{2}, [](Result<GroupId>) {});
  sim_.run_until(sim_.now() + seconds(10));
  ASSERT_TRUE(relay->radio.connected_to(NodeId{1}));

  bool notified = false;
  relay->radio.set_disconnect_handler([&](NodeId) { notified = true; });
  ue.reset();  // mid-run: the relay never polls its static link
  EXPECT_EQ(relay->radio.link_count(), 0u);
  EXPECT_FALSE(relay->radio.group().valid());
  EXPECT_FALSE(notified);  // teardown runs no disconnect callbacks

  // The medium audit (links to detached peers, poll armed iff moving)
  // passes after every event, and the idle-connected draw has stopped.
  sim_.set_audit_interval(1);
  const double after = relay->radio.radio_charge().value;
  sim_.run_until(sim_.now() + seconds(3600));
  EXPECT_NO_THROW(medium_.audit());
  EXPECT_NEAR(relay->radio.radio_charge().value - after, 0.0, 1e-6);
}

}  // namespace
}  // namespace d2dhb::d2d
