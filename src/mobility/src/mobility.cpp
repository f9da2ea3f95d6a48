#include "mobility/mobility.hpp"

#include <algorithm>
#include <cmath>

namespace d2dhb::mobility {

double length(Vec2 v) { return std::hypot(v.x, v.y); }

Meters distance(Vec2 a, Vec2 b) { return Meters{length(a - b)}; }

RandomWaypoint::RandomWaypoint(Params params, Vec2 start, Rng rng)
    : params_(params), rng_(rng) {
  legs_.push_back(Leg{TimePoint{}, TimePoint{}, TimePoint{}, start, start});
}

void RandomWaypoint::extend_to(TimePoint t) const {
  while (legs_.back().end_time < t) {
    const Leg& prev = legs_.back();
    Leg leg;
    leg.start_time = prev.end_time;
    leg.from = prev.to;
    leg.to = Vec2{rng_.uniform(params_.area_min.x, params_.area_max.x),
                  rng_.uniform(params_.area_min.y, params_.area_max.y)};
    const double speed =
        rng_.uniform(params_.min_speed_mps, params_.max_speed_mps);
    const double travel_s = length(leg.to - leg.from) / std::max(speed, 1e-9);
    leg.arrive_time = leg.start_time + seconds(travel_s);
    const double pause_s =
        rng_.uniform(0.0, to_seconds(params_.max_pause));
    leg.end_time = leg.arrive_time + seconds(pause_s);
    legs_.push_back(leg);
  }
}

double RandomWaypoint::max_speed_mps() const {
  return std::max({params_.min_speed_mps, params_.max_speed_mps, 1e-9});
}

Vec2 RandomWaypoint::position_at(TimePoint t) const {
  extend_to(t);
  // Binary search for the leg containing t.
  auto it = std::upper_bound(
      legs_.begin(), legs_.end(), t,
      [](TimePoint tp, const Leg& leg) { return tp < leg.end_time; });
  if (it == legs_.end()) it = std::prev(legs_.end());
  const Leg& leg = *it;
  if (t >= leg.arrive_time) return leg.to;
  const double total_s = to_seconds(leg.arrive_time - leg.start_time);
  if (total_s <= 0.0) return leg.to;
  const double frac = to_seconds(t - leg.start_time) / total_s;
  return leg.from + (leg.to - leg.from) * frac;
}

DepartureMobility::DepartureMobility(Vec2 start, Vec2 target,
                                     TimePoint depart_at, double speed_mps)
    : start_(start),
      target_(target),
      depart_at_(depart_at),
      speed_mps_(speed_mps) {
  const double travel_s =
      length(target - start) / std::max(speed_mps, 1e-9);
  arrive_at_ = depart_at + seconds(travel_s);
}

double DepartureMobility::max_speed_mps() const {
  return std::max(speed_mps_, 1e-9);
}

Vec2 DepartureMobility::position_at(TimePoint t) const {
  if (t <= depart_at_) return start_;
  if (t >= arrive_at_) return target_;
  const double frac = to_seconds(t - depart_at_) /
                      to_seconds(arrive_at_ - depart_at_);
  return start_ + (target_ - start_) * frac;
}

std::vector<Vec2> clustered_crowd(std::size_t nodes, std::size_t clusters,
                                  Vec2 area_min, Vec2 area_max,
                                  double cluster_stddev_m, Rng& rng) {
  std::vector<Vec2> centers;
  centers.reserve(std::max<std::size_t>(clusters, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(clusters, 1); ++i) {
    centers.push_back(Vec2{rng.uniform(area_min.x, area_max.x),
                           rng.uniform(area_min.y, area_max.y)});
  }
  std::vector<Vec2> positions;
  positions.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const Vec2 c = centers[rng.uniform_int(0, centers.size() - 1)];
    Vec2 p{rng.normal(c.x, cluster_stddev_m), rng.normal(c.y, cluster_stddev_m)};
    p.x = std::clamp(p.x, area_min.x, area_max.x);
    p.y = std::clamp(p.y, area_min.y, area_max.y);
    positions.push_back(p);
  }
  return positions;
}

}  // namespace d2dhb::mobility
