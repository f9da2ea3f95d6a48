// Per-device energy accounting.
//
// Replaces the paper's Monsoon Power Monitor (Section V-A): each device
// owns an EnergyMeter whose components (cellular modem, Wi-Fi Direct
// radio, platform baseline) report piecewise-constant current draws. The
// meter integrates charge in µAh at the nominal 3.7 V supply, exactly the
// quantity the paper reports in Tables III and IV.
//
// The meter schedules no events. A transient load is two future current
// steps {when, delta} kept in its component's time-ordered step list.
// Every read first applies each step due at or before now, integrating
// up to the step and then adding its delta; a charge read then also
// integrates up to now. A current read does not, so reading the current
// never splits the integration. Reads are right-continuous: a read at T
// sees every step at T. Steps at the same instant apply in insertion
// order; add_loads() inserts a phase's steps in the order a schedule of
// one event per segment boundary would have run them, so the
// floating-point sums match that schedule bit for bit (DESIGN.md §5).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::energy {

/// Opaque handle to a registered component of an EnergyMeter.
struct ComponentHandle {
  std::size_t index{SIZE_MAX};
  constexpr bool valid() const { return index != SIZE_MAX; }
};

class EnergyMeter {
 public:
  explicit EnergyMeter(sim::Simulator& sim) : sim_(sim) {}
  EnergyMeter(const EnergyMeter&) = delete;
  EnergyMeter& operator=(const EnergyMeter&) = delete;

  /// Registers a named component drawing `initial` from now on.
  ComponentHandle register_component(std::string name,
                                     MilliAmps initial = MilliAmps{0});

  /// Sets a component's constant draw; charge since the previous change
  /// is integrated first.
  void set_current(ComponentHandle component, MilliAmps current);

  /// Adds a transient load on top of the component's current draw for
  /// `duration` (the decrement is a pending step). Overlapping loads
  /// stack.
  void add_load(ComponentHandle component, MilliAmps extra, Duration duration);

  /// A load of `extra` from `start` after now, for `duration`.
  struct Load {
    Duration start;
    MilliAmps extra;
    Duration duration;
  };
  /// Adds several transient loads in one call, e.g. the segments of a
  /// phase. A load starting now is applied at once, like add_load().
  /// Steps are inserted as every start (or, for a load starting now,
  /// its end) in order, then the ends of the later loads: for
  /// back-to-back segments, at a shared instant the first segment's end
  /// comes before the second's start, and a later segment's start
  /// before the end of the one it follows.
  void add_loads(ComponentHandle component, std::span<const Load> loads);

  /// Sum of all component draws right now.
  MilliAmps instantaneous();
  MilliAmps component_current(ComponentHandle component);

  /// Total charge consumed since construction, up to now.
  MicroAmpHours total_charge();
  MicroAmpHours component_charge(ComponentHandle component);
  const std::string& component_name(ComponentHandle component) const;
  std::size_t component_count() const { return components_.size(); }

  /// Interval accounting, mirroring how the paper attributes energy to a
  /// phase: snapshot at phase start, subtract at phase end.
  struct Checkpoint {
    MicroAmpHours total;
  };
  Checkpoint checkpoint() { return Checkpoint{total_charge()}; }
  MicroAmpHours charge_since(const Checkpoint& cp) {
    return total_charge() - cp.total;
  }

  /// Per-component breakdown: name, present current, accumulated charge,
  /// and share of the total — the "where did the battery go" view.
  void print_report(std::ostream& os);

 private:
  /// A pending change of a component's draw.
  struct Step {
    TimePoint when;
    MilliAmps delta;
  };

  struct Component {
    std::string name;
    MilliAmps current;
    MicroAmpHours accumulated;
    TimePoint last_update;
    std::vector<Step> steps;  ///< Future steps, by time then insertion.
  };

  /// Integrates `c.current` from `c.last_update` up to `t`.
  static void advance(Component& c, TimePoint t);
  /// Applies every step due by now, integrating up to each one.
  void apply_due(Component& c);
  /// apply_due(), then integrates up to now.
  void settle(Component& c);
  static void push_step(Component& c, TimePoint when, MilliAmps delta);

  sim::Simulator& sim_;
  std::vector<Component> components_;
};

}  // namespace d2dhb::energy
