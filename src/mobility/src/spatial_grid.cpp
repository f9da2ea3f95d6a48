#include "mobility/spatial_grid.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace d2dhb::mobility {

// ---------------------------------------------------------------------------
// PointGrid
// ---------------------------------------------------------------------------

PointGrid::PointGrid(Meters cell_size) : cell_size_(cell_size.value) {
  if (!(cell_size_ > 0.0)) {
    throw std::invalid_argument("PointGrid: cell size must be > 0");
  }
}

void PointGrid::insert(std::size_t index, Vec2 position) {
  const auto slot = static_cast<std::uint32_t>(points_.size());
  points_.push_back(Point{index, position});
  buckets_[detail::cell_key(detail::cell_coord(position.x, cell_size_),
                            detail::cell_coord(position.y, cell_size_))]
      .push_back(slot);
}

template <typename Visit>
void PointGrid::visit_cells(Vec2 center, Meters radius, Visit&& visit) const {
  const double r = radius.value;
  const std::int64_t x0 = detail::cell_coord(center.x - r, cell_size_);
  const std::int64_t x1 = detail::cell_coord(center.x + r, cell_size_);
  const std::int64_t y0 = detail::cell_coord(center.y - r, cell_size_);
  const std::int64_t y1 = detail::cell_coord(center.y + r, cell_size_);
  for (std::int64_t cx = x0; cx <= x1; ++cx) {
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      const auto it = buckets_.find(detail::cell_key(cx, cy));
      if (it == buckets_.end()) continue;
      for (const std::uint32_t slot : it->second) {
        if (visit(points_[slot])) return;
      }
    }
  }
}

void PointGrid::query_radius(Vec2 center, Meters radius,
                             std::vector<std::size_t>& out) const {
  out.clear();
  visit_cells(center, radius, [&](const Point& p) {
    if (distance(center, p.position).value <= radius.value) {
      out.push_back(p.index);
    }
    return false;
  });
  std::sort(out.begin(), out.end());
}

std::size_t PointGrid::count_within(Vec2 center, Meters radius) const {
  std::size_t n = 0;
  visit_cells(center, radius, [&](const Point& p) {
    if (distance(center, p.position).value <= radius.value) ++n;
    return false;
  });
  return n;
}

bool PointGrid::any_within(Vec2 center, Meters radius) const {
  bool found = false;
  visit_cells(center, radius, [&](const Point& p) {
    if (distance(center, p.position).value <= radius.value) {
      found = true;
      return true;  // stop
    }
    return false;
  });
  return found;
}

std::size_t PointGrid::nearest(Vec2 center) const {
  if (points_.empty()) {
    throw std::out_of_range("PointGrid::nearest: grid is empty");
  }
  // Expanding ring search: try radius = cell, 2*cell, ... and keep the
  // lexicographic (distance, index) minimum — the same winner as a
  // first-strictly-closer linear scan. A ring's answer is final once
  // the best distance is covered by the searched radius.
  double best_d = std::numeric_limits<double>::max();
  std::size_t best_index = 0;
  for (double r = cell_size_;; r *= 2.0) {
    visit_cells(center, Meters{r}, [&](const Point& p) {
      const double d = distance(center, p.position).value;
      if (d < best_d || (d == best_d && p.index < best_index)) {
        best_d = d;
        best_index = p.index;
      }
      return false;
    });
    if (best_d <= r) return best_index;
    // Nothing (or nothing close enough) yet — widen. Bail to a full
    // scan once the ring has grown absurd relative to the data.
    if (r > cell_size_ * 1e6) break;
  }
  for (const Point& p : points_) {
    const double d = distance(center, p.position).value;
    if (d < best_d || (d == best_d && p.index < best_index)) {
      best_d = d;
      best_index = p.index;
    }
  }
  return best_index;
}

// ---------------------------------------------------------------------------
// SpatialGrid
// ---------------------------------------------------------------------------

SpatialGrid::SpatialGrid(Meters cell_size)
    : cell_size_(cell_size.value),
      half_skin_(kHalfSkinCells * cell_size_),
      skin_reach_(half_skin_ * (1.0 + kDriftRel) + kDriftAbsM) {
  if (!(cell_size_ > 0.0)) {
    throw std::invalid_argument("SpatialGrid: cell size must be > 0");
  }
}

SpatialGrid::Slot* SpatialGrid::slot_of(NodeId node) {
  if (node.value >= slots_.size()) return nullptr;
  Slot& s = slots_[node.value];
  return s.model == nullptr ? nullptr : &s;
}

const SpatialGrid::Slot* SpatialGrid::slot_of(NodeId node) const {
  if (node.value >= slots_.size()) return nullptr;
  const Slot& s = slots_[node.value];
  return s.model == nullptr ? nullptr : &s;
}

std::uint64_t SpatialGrid::cell_of(Vec2 at) const {
  return detail::cell_key(detail::cell_coord(at.x, cell_size_),
                          detail::cell_coord(at.y, cell_size_));
}

std::vector<std::uint32_t>& SpatialGrid::bucket_of(const Slot& slot) {
  auto& cells = slot.is_static ? static_cells_ : moving_cells_;
  return cells[cell_of(slot.cached)];
}

namespace {
/// Swap-removes `id` from `bucket`; order inside buckets is irrelevant
/// because queries sort by NodeId.
void erase_id(std::vector<std::uint32_t>& bucket, std::uint32_t id) {
  const auto it = std::find(bucket.begin(), bucket.end(), id);
  if (it != bucket.end()) {
    *it = bucket.back();
    bucket.pop_back();
  }
}
}  // namespace

TimePoint SpatialGrid::deadline_after(TimePoint binned_at,
                                      double max_speed) const {
  if (max_speed == 0.0) return TimePoint::max();
  const double slack_us = std::floor(half_skin_ / max_speed * 1e6);
  if (!(slack_us > 0.0)) return binned_at;  // no bound: every new instant
  const double room_us =
      static_cast<double>((TimePoint::max() - binned_at).count());
  if (slack_us >= room_us) return TimePoint::max();
  return binned_at + Duration{static_cast<std::int64_t>(slack_us)};
}

void SpatialGrid::schedule(std::uint32_t id, TimePoint binned_at) const {
  Slot& slot = slots_[id];
  slot.deadline = deadline_after(binned_at, slot.model->max_speed_mps());
  if (slot.deadline == TimePoint::max()) return;
  due_.push_back(Due{slot.deadline, id});
  std::push_heap(due_.begin(), due_.end(), std::greater<>{});
}

void SpatialGrid::rebin(std::uint32_t id, TimePoint t) const {
  Slot& slot = slots_[id];
  const Vec2 at = slot.model->position_at(t);
  const std::uint64_t from = cell_of(slot.cached);
  const std::uint64_t to = cell_of(at);
  slot.cached = at;
  if (to != from) {
    erase_id(moving_cells_[from], id);
    moving_cells_[to].push_back(id);
  }
  schedule(id, t);
}

void SpatialGrid::insert(NodeId node, const MobilityModel& model) {
  if (!node.valid()) {
    throw std::invalid_argument("SpatialGrid::insert: invalid node id");
  }
  if (node.value >= slots_.size()) slots_.resize(node.value + 1);
  const auto id = static_cast<std::uint32_t>(node.value);
  Slot& slot = slots_[id];
  if (slot.model != nullptr) remove(node);
  slot.model = &model;
  slot.is_static = model.is_static();
  // Bin at the last refreshed time (static nodes are time-invariant).
  slot.cached = model.position_at(cached_time_);
  bucket_of(slot).push_back(id);
  if (!slot.is_static) schedule(id, cached_time_);
  ++active_;
}

void SpatialGrid::remove(NodeId node) {
  Slot* slot = slot_of(node);
  if (slot == nullptr) return;
  // The node's heap entry goes stale with the slot (lazy removal).
  erase_id(bucket_of(*slot), static_cast<std::uint32_t>(node.value));
  *slot = Slot{};
  --active_;
}

bool SpatialGrid::contains(NodeId node) const {
  return slot_of(node) != nullptr;
}

Vec2 SpatialGrid::position(NodeId node, TimePoint t) const {
  const Slot* slot = slot_of(node);
  if (slot == nullptr) {
    throw std::out_of_range("SpatialGrid: unknown node #" +
                            std::to_string(node.value));
  }
  return slot->model->position_at(t);
}

const MobilityModel* SpatialGrid::model(NodeId node) const {
  const Slot* slot = slot_of(node);
  return slot == nullptr ? nullptr : slot->model;
}

void SpatialGrid::refresh(TimePoint t, std::uint64_t epoch) const {
  if (cache_primed_ && epoch == cached_epoch_ && t == cached_time_) return;
  if (t < cached_time_) {
    // Time ran backwards (tests query like this; the simulator never
    // does). Deadlines only look forward, so re-bin every moving node.
    due_.clear();
    for (std::uint32_t id = 0; id < slots_.size(); ++id) {
      if (slots_[id].model != nullptr && !slots_[id].is_static) rebin(id, t);
    }
  }
  while (!due_.empty() && due_.front().deadline < t) {
    const Due due = due_.front();
    std::pop_heap(due_.begin(), due_.end(), std::greater<>{});
    due_.pop_back();
    // Stale entries (node removed, or re-binned since) are dropped.
    if (slots_[due.id].model != nullptr &&
        slots_[due.id].deadline == due.deadline) {
      rebin(due.id, t);
    }
  }
  cached_time_ = t;
  cached_epoch_ = epoch;
  cache_primed_ = true;
}

template <typename Visit>
void SpatialGrid::visit_cells(
    // detlint: allow(unordered-state): key-only lookups, never iterated.
    const std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>&
        cells,
    Vec2 center, double reach, Visit&& visit) const {
  if (cells.empty()) return;
  const std::int64_t x0 = detail::cell_coord(center.x - reach, cell_size_);
  const std::int64_t x1 = detail::cell_coord(center.x + reach, cell_size_);
  const std::int64_t y0 = detail::cell_coord(center.y - reach, cell_size_);
  const std::int64_t y1 = detail::cell_coord(center.y + reach, cell_size_);
  for (std::int64_t cx = x0; cx <= x1; ++cx) {
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      const auto it = cells.find(detail::cell_key(cx, cy));
      if (it == cells.end()) continue;
      for (const std::uint32_t id : it->second) visit(id);
    }
  }
}

void SpatialGrid::query_radius(Vec2 center, Meters radius, TimePoint t,
                               std::uint64_t epoch,
                               std::vector<Neighbor>& out,
                               NodeId exclude) const {
  out.clear();
  refresh(t, epoch);
  const double r = radius.value;
  // Static nodes sit at their exact position: the exact reach suffices.
  visit_cells(static_cells_, center, r, [&](std::uint32_t id) {
    if (id == exclude.value) return;
    const Meters d = distance(center, slots_[id].cached);
    if (d.value <= r) out.push_back(Neighbor{NodeId{id}, d});
  });
  // A moving node is within skin_reach_ of its bin position, so the
  // cells covering r + skin_reach_ hold every moving node within r.
  // Each candidate is tested at its exact position, so the distance
  // matches a brute-force scan bit for bit.
  visit_cells(moving_cells_, center, r + skin_reach_, [&](std::uint32_t id) {
    if (id == exclude.value) return;
    const Meters d = distance(center, slots_[id].model->position_at(t));
    if (d.value <= r) out.push_back(Neighbor{NodeId{id}, d});
  });
  std::sort(out.begin(), out.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.node < b.node;
            });
}

namespace {
[[noreturn]] void grid_audit_fail(const std::string& what) {
  throw std::logic_error("SpatialGrid audit: " + what);
}
}  // namespace

void SpatialGrid::audit(TimePoint t, std::uint64_t epoch) const {
  refresh(t, epoch);
  if (!cache_primed_ || cached_time_ != t || cached_epoch_ != epoch) {
    grid_audit_fail("cache not fresh after refresh (epoch key ignored)");
  }
  if (!std::is_heap(due_.begin(), due_.end(), std::greater<>{})) {
    grid_audit_fail("re-bin deadlines are not a min-heap");
  }
  // Deadlines that have a heap entry, by node: each moving node's
  // current deadline must be among them, or it would never be re-binned.
  std::vector<std::pair<std::uint32_t, TimePoint>> scheduled;
  scheduled.reserve(due_.size());
  for (const Due& due : due_) scheduled.emplace_back(due.id, due.deadline);
  std::sort(scheduled.begin(), scheduled.end());
  std::size_t active_seen = 0;
  std::size_t static_seen = 0;
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    const Slot& slot = slots_[id];
    if (slot.model == nullptr) continue;
    ++active_seen;
    const auto node = [id] { return "node #" + std::to_string(id); };
    const Vec2 truth = slot.model->position_at(t);
    if (slot.is_static) {
      ++static_seen;
      if (slot.cached.x != truth.x || slot.cached.y != truth.y) {
        grid_audit_fail(node() + " (static) cached position is not exact");
      }
    } else {
      if (distance(truth, slot.cached).value > skin_reach_) {
        grid_audit_fail(node() + " drifted past its skin: " +
                        std::to_string(distance(truth, slot.cached).value) +
                        " m > " + std::to_string(skin_reach_) + " m");
      }
      if (slot.deadline < t) {
        grid_audit_fail(node() + " is past its re-bin deadline");
      }
      if (slot.deadline != TimePoint::max() &&
          !std::binary_search(
              scheduled.begin(), scheduled.end(),
              std::make_pair(static_cast<std::uint32_t>(id), slot.deadline))) {
        grid_audit_fail(node() + " has no heap entry for its deadline");
      }
    }
    const auto& cells = slot.is_static ? static_cells_ : moving_cells_;
    const auto bucket_it = cells.find(cell_of(slot.cached));
    if (bucket_it == cells.end() ||
        std::count(bucket_it->second.begin(), bucket_it->second.end(),
                   static_cast<std::uint32_t>(id)) != 1) {
      grid_audit_fail(node() + " is not binned exactly once in its bucket");
    }
  }
  if (active_seen != active_) {
    grid_audit_fail("active slot count " + std::to_string(active_seen) +
                    " != size() " + std::to_string(active_));
  }
  // Order-insensitive totals: a node binned into a *wrong* bucket (or
  // the wrong cells) shows up here as an excess entry even though its
  // own-bucket check passed.
  const auto total = [](const auto& cells) {
    std::size_t binned = 0;
    // detlint: allow(unordered-iter, float-accum): audit-only integer
    // count; the sum is independent of bucket iteration order.
    for (const auto& [cell, bucket] : cells) binned += bucket.size();
    return binned;
  };
  if (total(static_cells_) != static_seen ||
      total(moving_cells_) != active_ - static_seen) {
    grid_audit_fail("bucket membership totals do not match the static (" +
                    std::to_string(static_seen) + ") and moving (" +
                    std::to_string(active_ - static_seen) + ") node counts");
  }
}

}  // namespace d2dhb::mobility
