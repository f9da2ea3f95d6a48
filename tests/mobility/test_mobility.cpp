#include "mobility/mobility.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/rng.hpp"
#include "mobility/spatial_grid.hpp"

namespace d2dhb::mobility {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
}

TEST(Vec2, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}).value, 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}).value, 0.0);
}

TEST(StaticMobility, NeverMoves) {
  StaticMobility m{{5.0, 7.0}};
  EXPECT_EQ(m.position_at(TimePoint{}), (Vec2{5.0, 7.0}));
  EXPECT_EQ(m.position_at(TimePoint{} + seconds(1e6)), (Vec2{5.0, 7.0}));
}

TEST(LinearMobility, MovesAtConstantVelocity) {
  LinearMobility m{{0.0, 0.0}, {1.0, 0.5}};  // 1 m/s east, 0.5 m/s north
  const Vec2 p = m.position_at(TimePoint{} + seconds(10));
  EXPECT_DOUBLE_EQ(p.x, 10.0);
  EXPECT_DOUBLE_EQ(p.y, 5.0);
}

TEST(LinearMobility, WalkAwayCrossesRange) {
  // A UE walking 1 m/s away from a relay at the origin leaves a 30 m
  // radio range at t = 30 s.
  LinearMobility ue{{0.0, 0.0}, {1.0, 0.0}};
  StaticMobility relay{{0.0, 0.0}};
  const auto d_at = [&](double t_s) {
    return distance(ue.position_at(TimePoint{} + seconds(t_s)),
                    relay.position_at(TimePoint{} + seconds(t_s)))
        .value;
  };
  EXPECT_LT(d_at(29.0), 30.0);
  EXPECT_GT(d_at(31.0), 30.0);
}

TEST(RandomWaypoint, StaysInsideArea) {
  RandomWaypoint::Params params;
  params.area_min = {0.0, 0.0};
  params.area_max = {50.0, 50.0};
  RandomWaypoint m{params, {25.0, 25.0}, Rng{42}};
  for (int t = 0; t <= 3600; t += 10) {
    const Vec2 p = m.position_at(TimePoint{} + seconds(t));
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 50.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 50.0);
  }
}

TEST(RandomWaypoint, DeterministicForSeed) {
  RandomWaypoint::Params params;
  RandomWaypoint a{params, {10.0, 10.0}, Rng{7}};
  RandomWaypoint b{params, {10.0, 10.0}, Rng{7}};
  for (int t = 0; t <= 600; t += 30) {
    const Vec2 pa = a.position_at(TimePoint{} + seconds(t));
    const Vec2 pb = b.position_at(TimePoint{} + seconds(t));
    EXPECT_DOUBLE_EQ(pa.x, pb.x);
    EXPECT_DOUBLE_EQ(pa.y, pb.y);
  }
}

TEST(RandomWaypoint, OutOfOrderQueriesConsistent) {
  RandomWaypoint::Params params;
  RandomWaypoint m{params, {10.0, 10.0}, Rng{9}};
  const Vec2 late = m.position_at(TimePoint{} + seconds(500));
  const Vec2 early = m.position_at(TimePoint{} + seconds(100));
  const Vec2 late_again = m.position_at(TimePoint{} + seconds(500));
  EXPECT_DOUBLE_EQ(late.x, late_again.x);
  EXPECT_DOUBLE_EQ(late.y, late_again.y);
  // Early query must also be in-area and stable.
  const Vec2 early_again = m.position_at(TimePoint{} + seconds(100));
  EXPECT_DOUBLE_EQ(early.x, early_again.x);
}

TEST(RandomWaypoint, SpeedBounded) {
  RandomWaypoint::Params params;
  params.min_speed_mps = 0.5;
  params.max_speed_mps = 1.5;
  params.max_pause = Duration::zero() + seconds(0.001);
  RandomWaypoint m{params, {50.0, 50.0}, Rng{11}};
  Vec2 prev = m.position_at(TimePoint{});
  for (int t = 1; t <= 600; ++t) {
    const Vec2 cur = m.position_at(TimePoint{} + seconds(t));
    // Over 1 s the node can move at most max_speed (+ epsilon).
    EXPECT_LE(length(cur - prev), 1.5 + 1e-6);
    prev = cur;
  }
}

// ---------------------------------------------------------------------------
// max_speed_mps(): the bound SpatialGrid's skin rests on
// ---------------------------------------------------------------------------

/// Samples pairs of instants over [0, horizon] — gaps from 1 µs up to a
/// tenth of the horizon — and checks |p(t2) - p(t1)| against the
/// model's speed bound, padded exactly as SpatialGrid pads its drift
/// check (µs-truncated leg times run a hair faster than nominal).
void expect_speed_bound_holds(const MobilityModel& m, double horizon_s,
                              Rng& rng, const std::string& what) {
  const double vmax = m.max_speed_mps();
  ASSERT_TRUE(std::isfinite(vmax)) << what;
  const auto horizon_us = static_cast<std::uint64_t>(horizon_s * 1e6);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t gap_us =
        i % 2 == 0 ? rng.uniform_int(1, 20)
                   : rng.uniform_int(1, horizon_us / 10);
    const std::uint64_t t1_us = rng.uniform_int(0, horizon_us - gap_us);
    const TimePoint t1 = TimePoint{} + microseconds(
                                           static_cast<std::int64_t>(t1_us));
    const TimePoint t2 =
        t1 + microseconds(static_cast<std::int64_t>(gap_us));
    const double moved = distance(m.position_at(t1), m.position_at(t2)).value;
    const double bound =
        vmax * to_seconds(t2 - t1) * (1.0 + SpatialGrid::kDriftRel) +
        SpatialGrid::kDriftAbsM;
    ASSERT_LE(moved, bound) << what << ": t1=" << t1_us << " us, gap "
                            << gap_us << " us";
  }
}

TEST(MaxSpeed, StaticAndLinearBounds) {
  EXPECT_EQ(StaticMobility({3.0, 4.0}).max_speed_mps(), 0.0);
  EXPECT_DOUBLE_EQ(LinearMobility({0.0, 0.0}, {3.0, -4.0}).max_speed_mps(),
                   5.0);
  Rng rng{5};
  for (int trial = 0; trial < 20; ++trial) {
    const LinearMobility m{{rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)},
                           {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)}};
    expect_speed_bound_holds(m, 600.0, rng,
                             "linear trial " + std::to_string(trial));
  }
}

/// Random legs over areas from sub-µm (every leg's travel time truncates
/// to 0 µs: the node jumps) through µm and mm (travel times of a few
/// µs, truncated by up to one) to crowd scale.
TEST(MaxSpeed, RandomWaypointBoundsEveryLeg) {
  Rng rng{77};
  for (const double area : {1e-7, 5e-6, 1e-3, 0.5, 40.0, 900.0}) {
    for (int trial = 0; trial < 4; ++trial) {
      RandomWaypoint::Params params;
      params.area_max = {area, area};
      params.min_speed_mps = rng.uniform(0.1, 1.0);
      params.max_speed_mps = params.min_speed_mps + rng.uniform(0.0, 2.0);
      params.max_pause = seconds(rng.uniform(0.001, 2.0));
      const RandomWaypoint m{params,
                             {rng.uniform(0.0, area), rng.uniform(0.0, area)},
                             rng.fork()};
      EXPECT_EQ(m.max_speed_mps(), params.max_speed_mps);
      expect_speed_bound_holds(m, 60.0, rng,
                               "waypoint area " + std::to_string(area) +
                                   " trial " + std::to_string(trial));
    }
  }
}

TEST(MaxSpeed, DepartureAndOffsetBounds) {
  Rng rng{31};
  for (int trial = 0; trial < 20; ++trial) {
    const double speed = rng.uniform(0.2, 3.0);
    // Trip lengths from sub-µm to a stadium's width.
    const double trip = std::pow(10.0, rng.uniform(-7.0, 2.5));
    const Vec2 start{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    const DepartureMobility leaving{
        start, start + Vec2{trip, trip * rng.uniform(-1.0, 1.0)},
        TimePoint{} + seconds(rng.uniform(0.0, 30.0)), speed};
    EXPECT_EQ(leaving.max_speed_mps(), speed);
    expect_speed_bound_holds(leaving, 300.0, rng,
                             "departure trial " + std::to_string(trial));

    RandomWaypoint::Params params;
    params.area_max = {60.0, 60.0};
    const RandomWaypoint leader{params, {30.0, 30.0}, rng.fork()};
    const OffsetMobility member{leader, {rng.uniform(-2.0, 2.0), 1.0}};
    EXPECT_EQ(member.max_speed_mps(), leader.max_speed_mps());
    expect_speed_bound_holds(member, 300.0, rng,
                             "offset trial " + std::to_string(trial));
  }
}

TEST(MaxSpeed, UnknownModelsHaveNoBound) {
  struct Teleporter final : MobilityModel {
    Vec2 position_at(TimePoint) const override { return {}; }
  };
  EXPECT_EQ(Teleporter{}.max_speed_mps(),
            std::numeric_limits<double>::infinity());
}

TEST(ClusteredCrowd, GeneratesRequestedCount) {
  Rng rng{13};
  const auto positions =
      clustered_crowd(100, 4, {0.0, 0.0}, {100.0, 100.0}, 5.0, rng);
  EXPECT_EQ(positions.size(), 100u);
  for (const Vec2& p : positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 100.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 100.0);
  }
}

TEST(ClusteredCrowd, ClusteringIsTighterThanUniform) {
  Rng rng{17};
  const auto clustered =
      clustered_crowd(200, 2, {0.0, 0.0}, {1000.0, 1000.0}, 5.0, rng);
  // With 2 tight clusters in a huge area, the mean nearest-neighbour
  // distance is far below the ~uniform expectation (~35 m for n=200).
  double total_nn = 0.0;
  for (const Vec2& p : clustered) {
    double nn = 1e18;
    for (const Vec2& q : clustered) {
      if (&p == &q) continue;
      nn = std::min(nn, length(p - q));
    }
    total_nn += nn;
  }
  EXPECT_LT(total_nn / static_cast<double>(clustered.size()), 10.0);
}

TEST(ClusteredCrowd, ZeroClustersStillWorks) {
  Rng rng{19};
  const auto positions =
      clustered_crowd(10, 0, {0.0, 0.0}, {10.0, 10.0}, 1.0, rng);
  EXPECT_EQ(positions.size(), 10u);
}

}  // namespace
}  // namespace d2dhb::mobility
