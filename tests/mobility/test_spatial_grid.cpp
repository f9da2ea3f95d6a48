// World-index correctness: PointGrid / SpatialGrid answers must match a
// naive all-pairs scan exactly (same admitted set, same order rules) on
// random seeded layouts — the property the seeded-run equivalence of
// the whole simulator rests on.
#include "mobility/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace d2dhb::mobility {
namespace {

std::vector<Vec2> random_layout(std::size_t n, double area, Rng& rng) {
  std::vector<Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(-area / 4, area), rng.uniform(-area / 4, area)});
  }
  return points;
}

// ---------------------------------------------------------------------------
// PointGrid
// ---------------------------------------------------------------------------

TEST(PointGrid, MatchesBruteForceOnRandomLayouts) {
  Rng rng{2024};
  for (int trial = 0; trial < 20; ++trial) {
    const double area = rng.uniform(20.0, 300.0);
    const auto points = random_layout(40, area, rng);
    const Meters cell{rng.uniform(3.0, 40.0)};
    PointGrid grid{cell};
    for (std::size_t i = 0; i < points.size(); ++i) grid.insert(i, points[i]);

    for (int q = 0; q < 10; ++q) {
      const Vec2 center{rng.uniform(-area / 4, area),
                        rng.uniform(-area / 4, area)};
      const Meters radius{rng.uniform(0.0, area / 2)};
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (distance(center, points[i]).value <= radius.value) {
          expected.push_back(i);
        }
      }
      std::vector<std::size_t> got;
      grid.query_radius(center, radius, got);
      EXPECT_EQ(got, expected) << "trial " << trial << " query " << q;
      EXPECT_EQ(grid.count_within(center, radius), expected.size());
      EXPECT_EQ(grid.any_within(center, radius), !expected.empty());
    }
  }
}

TEST(PointGrid, NearestMatchesLinearScanIncludingTies) {
  Rng rng{7};
  for (int trial = 0; trial < 20; ++trial) {
    const auto points = random_layout(25, 100.0, rng);
    PointGrid grid{Meters{12.0}};
    for (std::size_t i = 0; i < points.size(); ++i) grid.insert(i, points[i]);
    for (int q = 0; q < 10; ++q) {
      const Vec2 center{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
      std::size_t best = 0;
      double best_d = distance(center, points[0]).value;
      for (std::size_t i = 1; i < points.size(); ++i) {
        const double d = distance(center, points[i]).value;
        if (d < best_d) {
          best_d = d;
          best = i;
        }
      }
      EXPECT_EQ(grid.nearest(center), best);
    }
  }
}

TEST(PointGrid, NearestBreaksExactTiesByLowestIndex) {
  PointGrid grid{Meters{5.0}};
  grid.insert(3, {10.0, 0.0});
  grid.insert(1, {0.0, 10.0});  // same distance from the origin
  grid.insert(7, {50.0, 50.0});
  EXPECT_EQ(grid.nearest({0.0, 0.0}), 1u);
}

TEST(PointGrid, EmptyNearestThrows) {
  PointGrid grid{Meters{5.0}};
  EXPECT_THROW(grid.nearest({0.0, 0.0}), std::out_of_range);
}

TEST(PointGrid, RejectsNonPositiveCellSize) {
  EXPECT_THROW(PointGrid{Meters{0.0}}, std::invalid_argument);
  EXPECT_THROW(PointGrid{Meters{-1.0}}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SpatialGrid
// ---------------------------------------------------------------------------

struct World {
  std::vector<std::unique_ptr<MobilityModel>> models;
  SpatialGrid grid{Meters{15.0}};

  NodeId add(std::unique_ptr<MobilityModel> model) {
    const NodeId id{models.size() + 1};
    grid.insert(id, *model);
    models.push_back(std::move(model));
    return id;
  }

  /// Naive all-pairs reference: in-range nodes sorted by id.
  std::vector<SpatialGrid::Neighbor> brute(Vec2 center, Meters radius,
                                           TimePoint t, NodeId exclude) {
    std::vector<SpatialGrid::Neighbor> out;
    for (std::size_t i = 0; i < models.size(); ++i) {
      const NodeId id{i + 1};
      if (id == exclude) continue;
      const Meters d = distance(center, models[i]->position_at(t));
      if (d.value <= radius.value) out.push_back({id, d});
    }
    return out;
  }
};

/// The tentpole property: grid radius queries match the naive all-pairs
/// scan on random seeded layouts — static and random-waypoint — across
/// query times, radii, and centers, including result order.
TEST(SpatialGrid, MatchesBruteForceOnStaticAndWaypointLayouts) {
  Rng rng{99};
  for (int trial = 0; trial < 10; ++trial) {
    World world;
    const double area = rng.uniform(40.0, 200.0);
    // Half static, half random-waypoint (the crowd mix).
    for (int i = 0; i < 18; ++i) {
      const Vec2 start{rng.uniform(0.0, area), rng.uniform(0.0, area)};
      if (i % 2 == 0) {
        world.add(std::make_unique<StaticMobility>(start));
      } else {
        RandomWaypoint::Params params;
        params.area_max = {area, area};
        world.add(
            std::make_unique<RandomWaypoint>(params, start, rng.fork()));
      }
    }
    std::uint64_t epoch = 0;
    std::vector<SpatialGrid::Neighbor> got;
    // Non-monotonic query times exercise the lazy refresh both ways.
    for (const double t_s : {0.0, 30.0, 30.0, 400.0, 120.0, 3600.0}) {
      const TimePoint t = TimePoint{} + seconds(t_s);
      ++epoch;
      for (int q = 0; q < 6; ++q) {
        const Vec2 center{rng.uniform(0.0, area), rng.uniform(0.0, area)};
        const Meters radius{rng.uniform(0.0, area / 2)};
        const NodeId exclude{q % 2 == 0 ? 0u : 1u + (q % 18)};
        world.grid.query_radius(center, radius, t, epoch, got, exclude);
        const auto expected = world.brute(center, radius, t, exclude);
        ASSERT_EQ(got.size(), expected.size())
            << "trial " << trial << " t=" << t_s << " q=" << q;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].node, expected[i].node);
          EXPECT_DOUBLE_EQ(got[i].distance.value, expected[i].distance.value);
        }
      }
    }
  }
}

TEST(SpatialGrid, ResultsAreSortedByNodeId) {
  World world;
  // Insert in a scrambled id order via direct grid calls.
  StaticMobility a{{1.0, 0.0}}, b{{2.0, 0.0}}, c{{3.0, 0.0}};
  world.grid.insert(NodeId{9}, c);
  world.grid.insert(NodeId{2}, a);
  world.grid.insert(NodeId{5}, b);
  std::vector<SpatialGrid::Neighbor> got;
  world.grid.query_radius({0.0, 0.0}, Meters{10.0}, TimePoint{}, 0, got);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].node, NodeId{2});
  EXPECT_EQ(got[1].node, NodeId{5});
  EXPECT_EQ(got[2].node, NodeId{9});
}

TEST(SpatialGrid, RemoveAndReinsert) {
  SpatialGrid grid{Meters{10.0}};
  StaticMobility a{{0.0, 0.0}};
  StaticMobility b{{5.0, 0.0}};
  grid.insert(NodeId{1}, a);
  grid.insert(NodeId{2}, b);
  EXPECT_EQ(grid.size(), 2u);
  grid.remove(NodeId{1});
  EXPECT_FALSE(grid.contains(NodeId{1}));
  EXPECT_EQ(grid.size(), 1u);
  std::vector<SpatialGrid::Neighbor> got;
  grid.query_radius({0.0, 0.0}, Meters{20.0}, TimePoint{}, 0, got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, NodeId{2});
  grid.insert(NodeId{1}, a);
  grid.query_radius({0.0, 0.0}, Meters{20.0}, TimePoint{}, 0, got);
  EXPECT_EQ(got.size(), 2u);
  // Removing an unknown node is a no-op.
  grid.remove(NodeId{42});
  EXPECT_EQ(grid.size(), 2u);
}

TEST(SpatialGrid, MovingNodeCrossesCells) {
  SpatialGrid grid{Meters{10.0}};
  // 2 m/s along +x: at t=0 in cell 0, at t=60 s 120 m away.
  LinearMobility walker{{0.0, 0.0}, {2.0, 0.0}};
  StaticMobility anchor{{0.0, 0.0}};
  grid.insert(NodeId{1}, walker);
  grid.insert(NodeId{2}, anchor);
  std::vector<SpatialGrid::Neighbor> got;
  grid.query_radius({0.0, 0.0}, Meters{30.0}, TimePoint{}, 1, got);
  EXPECT_EQ(got.size(), 2u);
  grid.query_radius({0.0, 0.0}, Meters{30.0}, TimePoint{} + seconds(60), 2,
                    got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, NodeId{2});
  // And it is findable at its new location.
  grid.query_radius({120.0, 0.0}, Meters{5.0}, TimePoint{} + seconds(60), 2,
                    got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, NodeId{1});
}

/// A node that crosses a cell border between two queries well inside
/// its re-bin deadline (half-skin 7.5 m at 1.5 m/s: 5 s) is still
/// binned in its old cell, yet is found at its new place and not at
/// its old one.
TEST(SpatialGrid, CellCrossingBeforeItsDeadlineIsFoundAtItsNewPlace) {
  SpatialGrid grid{Meters{30.0}};
  LinearMobility walker{{29.5, 10.0}, {1.5, 0.0}};  // border x = 30 at 1/3 s
  StaticMobility anchor{{29.5, 10.0}};
  grid.insert(NodeId{1}, walker);
  grid.insert(NodeId{2}, anchor);
  std::vector<SpatialGrid::Neighbor> got;
  grid.query_radius({29.5, 10.0}, Meters{0.5}, TimePoint{}, 1, got, NodeId{2});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, NodeId{1});

  const TimePoint later = TimePoint{} + seconds(1);  // x = 31, next cell
  grid.query_radius({29.5, 10.0}, Meters{1.0}, later, 2, got, NodeId{2});
  EXPECT_TRUE(got.empty());
  grid.query_radius({31.0, 10.0}, Meters{0.5}, later, 2, got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, NodeId{1});
  EXPECT_EQ(got[0].distance.value, 0.0);
  EXPECT_NO_THROW(grid.audit(later, 2));
}

/// Nodes inserted or removed between two queries of one (time, epoch)
/// key, where the second query skips the refresh: the newcomer is
/// binned at the cached instant and found, the removed node is gone.
TEST(SpatialGrid, InsertAndRemoveWithinOneInstantAreSeenByTheNextQuery) {
  SpatialGrid grid{Meters{30.0}};
  LinearMobility walker{{0.0, 0.0}, {1.5, 0.0}};
  LinearMobility newcomer{{100.0, 0.0}, {-1.5, 0.0}};
  grid.insert(NodeId{1}, walker);
  const TimePoint t = TimePoint{} + seconds(20);  // walker at x = 30
  std::vector<SpatialGrid::Neighbor> got;
  grid.query_radius({40.0, 0.0}, Meters{15.0}, t, 7, got);
  ASSERT_EQ(got.size(), 1u);
  grid.insert(NodeId{2}, newcomer);  // at x = 70 at t
  grid.remove(NodeId{1});
  grid.query_radius({60.0, 0.0}, Meters{40.0}, t, 7, got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, NodeId{2});
  EXPECT_EQ(got[0].distance.value, 10.0);
  EXPECT_NO_THROW(grid.audit(t, 7));
}

/// Jumps to a fresh pseudo-random spot every 0.1 s: no finite speed
/// bounds it, and it keeps the default max_speed_mps() (+infinity).
class Teleporter final : public MobilityModel {
 public:
  Teleporter(double area, std::uint64_t seed) : area_(area), seed_(seed) {}
  Vec2 position_at(TimePoint t) const override {
    Rng hop{seed_ ^ static_cast<std::uint64_t>(t.time_since_epoch().count() /
                                               100000)};
    return {hop.uniform(0.0, area_), hop.uniform(0.0, area_)};
  }

 private:
  double area_;
  std::uint64_t seed_;
};

/// Models without a speed bound are re-binned at every new instant on
/// the same path as everyone else, so dense queries over a mix of
/// static, waypoint and teleporting nodes still match brute force.
TEST(SpatialGrid, ModelWithoutSpeedBoundMatchesBruteForce) {
  Rng rng{404};
  World world;
  const double area = 120.0;
  for (int i = 0; i < 30; ++i) {
    const Vec2 start{rng.uniform(0.0, area), rng.uniform(0.0, area)};
    if (i % 3 == 0) {
      world.add(std::make_unique<Teleporter>(area, rng.next_u64()));
    } else if (i % 3 == 1) {
      world.add(std::make_unique<StaticMobility>(start));
    } else {
      RandomWaypoint::Params params;
      params.area_max = {area, area};
      params.max_speed_mps = 3.0;
      world.add(std::make_unique<RandomWaypoint>(params, start, rng.fork()));
    }
  }
  std::vector<SpatialGrid::Neighbor> got;
  std::uint64_t epoch = 0;
  for (int step = 0; step <= 200; ++step) {
    const TimePoint t = TimePoint{} + milliseconds(50 * step);
    ++epoch;
    for (int q = 0; q < 4; ++q) {
      const Vec2 center{rng.uniform(0.0, area), rng.uniform(0.0, area)};
      const Meters radius{rng.uniform(5.0, 40.0)};
      world.grid.query_radius(center, radius, t, epoch, got);
      const auto expected = world.brute(center, radius, t, NodeId::invalid());
      ASSERT_EQ(got.size(), expected.size()) << "step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].node, expected[i].node);
        EXPECT_EQ(got[i].distance.value, expected[i].distance.value);
      }
    }
    EXPECT_NO_THROW(world.grid.audit(t, epoch));
  }
}

TEST(SpatialGrid, PositionIsExactNeverCached) {
  SpatialGrid grid{Meters{10.0}};
  LinearMobility walker{{0.0, 0.0}, {1.0, 0.0}};
  grid.insert(NodeId{1}, walker);
  // No query (so no refresh) has happened at t=10, yet position() reads
  // the model directly.
  const Vec2 at = grid.position(NodeId{1}, TimePoint{} + seconds(10));
  EXPECT_DOUBLE_EQ(at.x, 10.0);
  EXPECT_THROW(grid.position(NodeId{3}, TimePoint{}), std::out_of_range);
}

TEST(SpatialGrid, StaticModelsAreDetected) {
  StaticMobility still{{1.0, 1.0}};
  OffsetMobility offset_still{still, {2.0, 0.0}};
  LinearMobility moving{{0.0, 0.0}, {1.0, 0.0}};
  OffsetMobility offset_moving{moving, {2.0, 0.0}};
  EXPECT_TRUE(still.is_static());
  EXPECT_TRUE(offset_still.is_static());
  EXPECT_FALSE(moving.is_static());
  EXPECT_FALSE(offset_moving.is_static());
}

}  // namespace
}  // namespace d2dhb::mobility
