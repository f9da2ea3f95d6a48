// Node placement and movement.
//
// The paper's framework must cope with "the inherent mobility of
// smartphones" — D2D links break when peers drift past the radio range.
// These models drive the distance inputs of the D2D substrate: static
// placement for the controlled experiments (Figs. 8-13, 15), linear
// walk-away for disconnect tests, random-waypoint and clustered crowds
// for the high-density scenarios Section II-D motivates.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace d2dhb::mobility {

struct Vec2 {
  double x{0.0};
  double y{0.0};

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double k) const { return {x * k, y * k}; }
  constexpr bool operator==(const Vec2&) const = default;
};

double length(Vec2 v);
Meters distance(Vec2 a, Vec2 b);

/// A node's trajectory through simulated time.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual Vec2 position_at(TimePoint t) const = 0;
  /// True when position_at is time-invariant. The world index
  /// (mobility::SpatialGrid) bins static nodes once and only refreshes
  /// the moving ones; a model may only report true if its position
  /// never changes.
  virtual bool is_static() const { return false; }
  /// Upper bound on the node's speed: |p(t2) - p(t1)| <= bound *
  /// |t2 - t1| for any two instants, up to the slack of µs-truncated
  /// leg times (SpatialGrid pads its drift check for that). The world
  /// index re-bins a moving node only once it may have drifted past its
  /// skin; +infinity (no bound known) re-bins it at every new instant.
  virtual double max_speed_mps() const {
    return std::numeric_limits<double>::infinity();
  }
};

/// Fixed position — the paper's bench-top experiments (devices at a set
/// distance on a desk).
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(Vec2 position) : position_(position) {}
  Vec2 position_at(TimePoint) const override { return position_; }
  bool is_static() const override { return true; }
  double max_speed_mps() const override { return 0.0; }

 private:
  Vec2 position_;
};

/// Constant-velocity motion from a start point; used to walk a UE out of
/// D2D range deterministically.
class LinearMobility final : public MobilityModel {
 public:
  /// `velocity` is in meters per second.
  LinearMobility(Vec2 start, Vec2 velocity)
      : start_(start), velocity_(velocity) {}
  Vec2 position_at(TimePoint t) const override {
    return start_ + velocity_ * to_seconds(t);
  }
  double max_speed_mps() const override { return length(velocity_); }

 private:
  Vec2 start_;
  Vec2 velocity_;
};

/// Classic random-waypoint over a rectangular area. Legs are generated
/// lazily from a private RNG stream and cached, so position queries are
/// deterministic and may arrive in any order.
class RandomWaypoint final : public MobilityModel {
 public:
  struct Params {
    Vec2 area_min{0.0, 0.0};
    Vec2 area_max{100.0, 100.0};
    double min_speed_mps{0.5};
    double max_speed_mps{1.5};
    Duration max_pause{seconds(30)};
  };

  RandomWaypoint(Params params, Vec2 start, Rng rng);
  Vec2 position_at(TimePoint t) const override;
  /// Legs draw their speed from [min_speed_mps, max_speed_mps], floored
  /// at the 1e-9 m/s that leg timing uses.
  double max_speed_mps() const override;

 private:
  struct Leg {
    TimePoint start_time;
    TimePoint end_time;  ///< includes the pause at the destination
    TimePoint arrive_time;
    Vec2 from;
    Vec2 to;
  };

  void extend_to(TimePoint t) const;

  Params params_;
  mutable Rng rng_;
  mutable std::vector<Leg> legs_;
};

/// Follows another trajectory at a fixed offset — members of a group
/// (a family walking together) share one leader path.
class OffsetMobility final : public MobilityModel {
 public:
  OffsetMobility(const MobilityModel& leader, Vec2 offset)
      : leader_(leader), offset_(offset) {}
  Vec2 position_at(TimePoint t) const override {
    return leader_.position_at(t) + offset_;
  }
  bool is_static() const override { return leader_.is_static(); }
  double max_speed_mps() const override { return leader_.max_speed_mps(); }

 private:
  const MobilityModel& leader_;
  Vec2 offset_;
};

/// Stationary until `depart_at`, then walks straight toward `target` at
/// `speed_mps` and stays there — the "stadium exodus" motion where a
/// whole crowd leaves at once.
class DepartureMobility final : public MobilityModel {
 public:
  DepartureMobility(Vec2 start, Vec2 target, TimePoint depart_at,
                    double speed_mps);
  Vec2 position_at(TimePoint t) const override;
  double max_speed_mps() const override;
  TimePoint arrival_time() const { return arrive_at_; }

 private:
  Vec2 start_;
  Vec2 target_;
  TimePoint depart_at_;
  TimePoint arrive_at_;
  double speed_mps_;
};

/// Generates clustered positions for a crowd: `clusters` hotspot centers
/// uniformly in the area, nodes normally scattered around a random
/// hotspot. Models the "high-density crowd" regions where signaling
/// storms occur (Section II-D).
std::vector<Vec2> clustered_crowd(std::size_t nodes, std::size_t clusters,
                                  Vec2 area_min, Vec2 area_max,
                                  double cluster_stddev_m, Rng& rng);

}  // namespace d2dhb::mobility
