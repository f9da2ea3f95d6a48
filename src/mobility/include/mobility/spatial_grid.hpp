// World index: uniform-cell spatial hashing over node positions.
//
// Every dense-proximity consumer (D2D discovery scans, range-exit
// sweeps, operator relay selection, nearest-cell attach) used to walk
// all nodes; at crowd scale those all-pairs loops dominate the run.
// The grid answers "who is within r of here" by visiting only the
// overlapping cells, with results in deterministic NodeId/index order
// so seeded runs stay bit-identical regardless of bucket layout.
//
// Two layers:
//  * PointGrid — static Vec2 points with a caller-chosen index. Built
//    once; used for layout-time queries (relay selection, coverage
//    accounting, cell-site attach).
//  * SpatialGrid — NodeId-keyed index over live MobilityModel
//    trajectories. Static nodes are binned once at their exact
//    position. Moving nodes are binned with a Verlet skin: a node is
//    re-binned only once it may have drifted half a skin from where it
//    was binned (its speed bound times the elapsed time), so a scan
//    re-positions the few nodes that are due, not every moving node,
//    and tests its moving candidates at their exact positions.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/id.hpp"
#include "common/units.hpp"
#include "mobility/mobility.hpp"

namespace d2dhb::mobility {

namespace detail {
/// Integer cell coordinate of a position along one axis.
inline std::int64_t cell_coord(double v, double cell_size) {
  return static_cast<std::int64_t>(std::floor(v / cell_size));
}
/// Packs the two 32-bit-ish cell coordinates into one hashable key.
inline std::uint64_t cell_key(std::int64_t cx, std::int64_t cy) {
  return (static_cast<std::uint64_t>(cx) << 32) ^
         static_cast<std::uint64_t>(cy & 0xffffffff);
}
}  // namespace detail

/// Spatial hash over immutable points. Indices are caller-defined
/// (e.g. candidate array offsets or cell-site numbers); queries return
/// them sorted ascending, which makes downstream iteration order — and
/// therefore any RNG consumption — independent of bucket layout.
class PointGrid {
 public:
  /// `cell_size` is normally the query radius of interest (one ring of
  /// neighbour cells then suffices); must be > 0.
  explicit PointGrid(Meters cell_size);

  void insert(std::size_t index, Vec2 position);
  std::size_t size() const { return points_.size(); }
  Meters cell_size() const { return Meters{cell_size_}; }

  /// Indices of all points with distance(center, p) <= radius, sorted
  /// ascending. `out` is cleared first.
  void query_radius(Vec2 center, Meters radius,
                    std::vector<std::size_t>& out) const;

  /// Number of points within `radius` of `center`.
  std::size_t count_within(Vec2 center, Meters radius) const;

  /// True if any point lies within `radius` of `center` (early exit).
  bool any_within(Vec2 center, Meters radius) const;

  /// Index of the nearest point (ties broken by lowest index — the same
  /// rule as a first-strictly-closer linear scan). Requires size() > 0.
  std::size_t nearest(Vec2 center) const;

 private:
  struct Point {
    std::size_t index;
    Vec2 position;
  };

  template <typename Visit>
  void visit_cells(Vec2 center, Meters radius, Visit&& visit) const;

  double cell_size_;
  std::vector<Point> points_;
  // detlint: allow(unordered-state): buckets are looked up by key only,
  // never iterated; query results are sorted before they escape.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
};

/// Live world index over MobilityModel trajectories, keyed by NodeId.
///
/// Determinism rules (relied on by the seeded-run equivalence tests):
///  * query results are sorted by NodeId ascending;
///  * distances are computed with the exact same `mobility::distance`
///    arithmetic as a brute-force scan, so the admitted set is
///    identical bit for bit;
///  * the grid never reorders or batches RNG draws itself — it only
///    produces candidate sets.
///
/// Refresh policy: `position_at` is authoritative and is what queries
/// compare against. Nodes whose model reports `is_static()` are binned
/// once, at their exact position, in the static cells. A moving node
/// sits in the moving cells at the position it had when it was last
/// binned, and carries a re-bin deadline: the last µs at which
/// `max_speed_mps() * (t - binned_at)` stays within the half-skin
/// h = kHalfSkinCells * cell size. A min-heap of deadlines lets a query
/// at a new (time, epoch) re-bin only the nodes that are due; heap
/// entries are dropped lazily once their slot's deadline has moved on.
/// A model with no speed bound gets deadline = binned_at and is
/// re-binned at every new instant, on the same path.
///
/// Queries test static candidates against their cached (exact)
/// positions within the exact reach r, and moving candidates from the
/// cells covering r plus the padded skin at their exact `position_at`.
/// Both tests use the brute-force `distance` arithmetic and the hits
/// are sorted by NodeId, so the admitted set and its order do not
/// depend on when a node was last binned.
class SpatialGrid {
 public:
  /// Half-skin as a fraction of the cell size: a moving node is
  /// re-binned once it may have drifted this far from its bin position.
  static constexpr double kHalfSkinCells = 0.25;
  /// Padding of the drift bound (relative, and absolute in meters): leg
  /// times are truncated to whole µs, so a leg runs a hair faster than
  /// its nominal speed, and interpolation rounds.
  static constexpr double kDriftRel = 1e-6;
  static constexpr double kDriftAbsM = 1e-3;

  explicit SpatialGrid(Meters cell_size);

  void insert(NodeId node, const MobilityModel& model);
  void remove(NodeId node);
  bool contains(NodeId node) const;
  std::size_t size() const { return active_; }
  Meters cell_size() const { return Meters{cell_size_}; }

  /// Exact position of a registered node at `t` (straight from the
  /// model — never the cached copy).
  Vec2 position(NodeId node, TimePoint t) const;
  const MobilityModel* model(NodeId node) const;

  /// One query hit: the node and its exact distance from the center.
  struct Neighbor {
    NodeId node;
    Meters distance;
  };

  /// All registered nodes (minus `exclude`) within `radius` of
  /// `center` at time `t`, sorted by NodeId ascending. `out` is
  /// cleared first. `epoch` keys the lazy refresh — pass the
  /// simulator's time epoch so repeated queries within one event
  /// instant skip the deadline check (see sim::Simulator::time_epoch()).
  void query_radius(Vec2 center, Meters radius, TimePoint t,
                    std::uint64_t epoch, std::vector<Neighbor>& out,
                    NodeId exclude = NodeId::invalid()) const;

  /// Invariant audit (the D2DHB_AUDIT layer): refreshes to (t, epoch)
  /// and verifies the skin and the binning — every static node's cached
  /// position equals its model at t; every moving node is within the
  /// padded half-skin of its cached position, is not past its re-bin
  /// deadline, and has a live heap entry for it; the deadline heap is a
  /// heap; every active node sits exactly once in the bucket of its
  /// cached position, in the right (static or moving) cells. Throws
  /// std::logic_error naming the violation.
  void audit(TimePoint t, std::uint64_t epoch) const;

 private:
  struct Slot {
    const MobilityModel* model{nullptr};
    /// Static: the exact position. Moving: the position at binning.
    /// The node's bucket is the cell of this position.
    Vec2 cached{};
    /// Moving: last instant the bin is within the half-skin; static
    /// nodes (and moving ones that can never drift) hold max().
    TimePoint deadline{TimePoint::max()};
    bool is_static{false};
  };
  /// One heap entry: re-bin `id` after `deadline` (live while the slot
  /// still holds this deadline).
  struct Due {
    TimePoint deadline;
    std::uint32_t id;
    bool operator>(const Due& o) const { return deadline > o.deadline; }
  };

  Slot* slot_of(NodeId node);
  const Slot* slot_of(NodeId node) const;
  std::uint64_t cell_of(Vec2 at) const;
  std::vector<std::uint32_t>& bucket_of(const Slot& slot);
  /// Sets a moving node's re-bin deadline and queues it on the heap.
  void schedule(std::uint32_t id, TimePoint binned_at) const;
  /// Moves a moving node's bin to its exact position at `t` and
  /// schedules its next re-bin.
  void rebin(std::uint32_t id, TimePoint t) const;
  TimePoint deadline_after(TimePoint binned_at, double max_speed) const;
  void refresh(TimePoint t, std::uint64_t epoch) const;
  /// Calls `visit(id)` for every node binned in `cells` that overlap
  /// the square of half-width `reach` around `center`.
  template <typename Visit>
  void visit_cells(
      // detlint: allow(unordered-state): key-only lookups, never iterated.
      const std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>&
          cells,
      Vec2 center, double reach, Visit&& visit) const;

  double cell_size_;
  double half_skin_;
  /// The half-skin padded by kDriftRel/kDriftAbsM: how far a moving
  /// node may be from its bin position before its deadline passes.
  double skin_reach_;
  std::size_t active_{0};
  /// Dense slot table indexed by NodeId value (ids are contiguous from
  /// 1 in every scenario, so this is a flat array, not a hash).
  mutable std::vector<Slot> slots_;
  // detlint: allow(unordered-state): key-only lookups; every query
  // sorts its hits by NodeId before returning, so bucket layout never
  // reaches sim-visible state (see determinism rules above).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
      static_cells_;
  // detlint: allow(unordered-state): same rule as static_cells_.
  mutable std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
      moving_cells_;
  /// Min-heap (std::greater) of moving nodes' re-bin deadlines.
  mutable std::vector<Due> due_;
  mutable TimePoint cached_time_{};
  mutable std::uint64_t cached_epoch_{0};
  mutable bool cache_primed_{false};
};

}  // namespace d2dhb::mobility
