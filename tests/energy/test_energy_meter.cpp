#include "energy/energy_meter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "d2d/energy_profile.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::energy {
namespace {

using d2d::D2dEnergyProfile;
using d2d::PhaseShape;

// Reference oracle: the event-driven meter that EnergyMeter replaced.
// Each load boundary is a kernel event; a phase's later segments start
// from events scheduled when the phase is applied.
class EventDrivenMeter {
 public:
  explicit EventDrivenMeter(sim::Simulator& sim) : sim_(sim) {}

  std::size_t add(MilliAmps initial) {
    components_.push_back({initial, MicroAmpHours{}, sim_.now()});
    return components_.size() - 1;
  }
  void set_current(std::size_t i, MilliAmps current) {
    settle(i);
    components_[i].current = current;
  }
  void add_load(std::size_t i, MilliAmps extra, Duration duration) {
    settle(i);
    components_[i].current += extra;
    sim_.schedule_after(duration, [this, i, extra] {
      settle(i);
      components_[i].current -= extra;
    });
  }
  void apply_phase(std::size_t i, const PhaseShape& shape,
                   MicroAmpHours target) {
    const double k = target.value * 3.6 / shape.weighted_seconds();
    Duration offset{};
    for (const auto& seg : shape.segments) {
      const MilliAmps current{k * seg.weight};
      if (current.value > 0.0) {
        if (offset == Duration::zero()) {
          add_load(i, current, seg.duration);
        } else {
          sim_.schedule_after(offset, [this, i, current, d = seg.duration] {
            add_load(i, current, d);
          });
        }
      }
      offset += seg.duration;
    }
  }
  MilliAmps current(std::size_t i) const { return components_[i].current; }
  MilliAmps instantaneous() const {
    MilliAmps sum;
    for (const auto& c : components_) sum += c.current;
    return sum;
  }
  MicroAmpHours charge(std::size_t i) {
    settle(i);
    return components_[i].accumulated;
  }
  MicroAmpHours total_charge() {
    MicroAmpHours sum;
    for (std::size_t i = 0; i < components_.size(); ++i) sum += charge(i);
    return sum;
  }

 private:
  struct Component {
    MilliAmps current;
    MicroAmpHours accumulated;
    TimePoint last_update;
  };
  void settle(std::size_t i) {
    auto& c = components_[i];
    if (sim_.now() > c.last_update) {
      c.accumulated += integrate(c.current, sim_.now() - c.last_update);
      c.last_update = sim_.now();
    }
  }
  sim::Simulator& sim_;
  std::vector<Component> components_;
};

TEST(EnergyMeter, IntegratesConstantDraw) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{360.0});
  sim.run_until(TimePoint{} + seconds(10));
  // 360 mA · 10 s / 3.6 = 1000 µAh.
  EXPECT_NEAR(meter.total_charge().value, 1000.0, 1e-9);
  EXPECT_NEAR(meter.component_charge(c).value, 1000.0, 1e-9);
}

TEST(EnergyMeter, MultipleComponentsSum) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  meter.register_component("baseline", MilliAmps{40.0});
  meter.register_component("radio", MilliAmps{320.0});
  sim.run_until(TimePoint{} + seconds(36));
  EXPECT_NEAR(meter.total_charge().value, 3600.0, 1e-9);
  EXPECT_EQ(meter.component_count(), 2u);
}

TEST(EnergyMeter, SetCurrentSplitsIntegration) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{100.0});
  sim.run_until(TimePoint{} + seconds(18));  // 100·18/3.6 = 500
  meter.set_current(c, MilliAmps{200.0});
  sim.run_until(TimePoint{} + seconds(36));  // + 200·18/3.6 = 1000
  EXPECT_NEAR(meter.component_charge(c).value, 1500.0, 1e-9);
}

TEST(EnergyMeter, InstantaneousReflectsAllComponents) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto a = meter.register_component("a", MilliAmps{40.0});
  meter.register_component("b", MilliAmps{60.0});
  EXPECT_DOUBLE_EQ(meter.instantaneous().value, 100.0);
  meter.set_current(a, MilliAmps{10.0});
  EXPECT_DOUBLE_EQ(meter.instantaneous().value, 70.0);
}

TEST(EnergyMeter, AddLoadDecaysAfterDuration) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{0.0});
  meter.add_load(c, MilliAmps{360.0}, seconds(10));
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 360.0);
  sim.run_until(TimePoint{} + seconds(20));
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 0.0);
  EXPECT_NEAR(meter.component_charge(c).value, 1000.0, 1e-9);
}

TEST(EnergyMeter, OverlappingLoadsStack) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio", MilliAmps{0.0});
  meter.add_load(c, MilliAmps{100.0}, seconds(10));
  sim.run_until(TimePoint{} + seconds(5));
  meter.add_load(c, MilliAmps{100.0}, seconds(10));
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 200.0);
  sim.run_until(TimePoint{} + seconds(30));
  EXPECT_DOUBLE_EQ(meter.component_current(c).value, 0.0);
  // Two loads of 100 mA · 10 s = 2 · (1000/3.6) µAh.
  EXPECT_NEAR(meter.component_charge(c).value, 2000.0 / 3.6, 1e-9);
}

TEST(EnergyMeter, AddLoadRejectsNonPositiveDuration) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("radio");
  EXPECT_THROW(meter.add_load(c, MilliAmps{10.0}, Duration::zero()),
               std::invalid_argument);
}

TEST(EnergyMeter, CheckpointDeltas) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  meter.register_component("radio", MilliAmps{36.0});
  sim.run_until(TimePoint{} + seconds(10));
  const auto cp = meter.checkpoint();
  sim.run_until(TimePoint{} + seconds(20));
  EXPECT_NEAR(meter.charge_since(cp).value, 100.0, 1e-9);
}

TEST(EnergyMeter, ComponentNameLookup) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("cellular:WCDMA");
  EXPECT_EQ(meter.component_name(c), "cellular:WCDMA");
}

TEST(EnergyMeter, PhaseSchedulesNoEvents) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  const auto c = meter.register_component("wifi_direct");
  const std::size_t pending = sim.pending_events();
  const Duration total = d2d::apply_phase(
      meter, c, D2dEnergyProfile::send_shape(), MicroAmpHours{73.09});
  EXPECT_EQ(sim.pending_events(), pending);
  sim.run_until(TimePoint{} + total + seconds(1));
  EXPECT_NEAR(meter.component_charge(c).value, 73.09, 1e-9);
  EXPECT_NEAR(meter.component_current(c).value, 0.0, 1e-9);
}

// A phase whose internal boundaries coincide (segment j's end is
// segment j+1's start) on a component with a base draw, so the order
// of same-instant steps shows in the last bits of the current.
TEST(EnergyMeter, PhaseBoundariesMatchEventDrivenOracleBitForBit) {
  const std::vector<std::pair<PhaseShape, MicroAmpHours>> phases{
      {D2dEnergyProfile::send_shape(), MicroAmpHours{73.09}},
      {D2dEnergyProfile::receive_shape(), MicroAmpHours{131.3}},
      {D2dEnergyProfile::discovery_shape(), MicroAmpHours{132.24}},
      {D2dEnergyProfile::connection_shape(), MicroAmpHours{63.74}},
      // A leading zero-weight segment: every load starts later.
      {PhaseShape{{{milliseconds(100), 0.0},
                   {milliseconds(100), 3.3},
                   {milliseconds(100), 0.7},
                   {milliseconds(100), 5.1}}},
       MicroAmpHours{17.3}}};
  for (const auto& [shape, target] : phases) {
    sim::Simulator sim;
    EnergyMeter meter{sim};
    EventDrivenMeter oracle{sim};
    const auto c = meter.register_component("wifi_direct", MilliAmps{41.3});
    const std::size_t o = oracle.add(MilliAmps{41.3});
    d2d::apply_phase(meter, c, shape, target);
    oracle.apply_phase(o, shape, target);
    TimePoint boundary{};
    for (const auto& seg : shape.segments) {
      boundary += seg.duration;
      sim.run_until(boundary);  // every event at the boundary has run
      EXPECT_EQ(meter.component_current(c).value, oracle.current(o).value);
      EXPECT_EQ(meter.component_charge(c).value, oracle.charge(o).value);
    }
    EXPECT_EQ(meter.component_current(c).value, oracle.current(o).value);
  }
}

// Differential check against the event-driven oracle over a seeded mix
// of phases, control loads, set_current calls and reads on three
// components. Every load duration is a multiple of 50 ms. Each load
// (phase or control frame) starts at its own offset below 1 ms past a
// 50 ms grid point, each set_current or read 25 ms past one, so no two
// loads share a boundary and no set_current or read lands on one.
// Every read must agree exactly.
TEST(EnergyMeter, MatchesEventDrivenOracleOnRandomMix) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  EventDrivenMeter oracle{sim};
  const MilliAmps initial[] = {MilliAmps{40.0}, MilliAmps{0.0},
                               MilliAmps{2.7}};
  std::vector<ComponentHandle> handles;
  for (const MilliAmps a : initial) {
    handles.push_back(meter.register_component("c", a));
    oracle.add(a);
  }
  const std::pair<PhaseShape, MicroAmpHours> phases[] = {
      {D2dEnergyProfile::send_shape(), MicroAmpHours{73.09}},
      {D2dEnergyProfile::receive_shape(), MicroAmpHours{131.3}},
      {D2dEnergyProfile::discovery_shape(), MicroAmpHours{122.5}},
      {D2dEnergyProfile::connection_shape(), MicroAmpHours{60.29}}};

  std::mt19937_64 rng{20170605};
  int reads = 0;
  TimePoint t{};
  for (int i = 0; i < 600; ++i) {
    t += milliseconds(50) * static_cast<std::int64_t>(rng() % 8 + 1);
    const std::size_t comp = rng() % handles.size();
    const unsigned kind = rng() % 8;
    // Kinds 0-4 add loads; 5 sets a current; 6 and 7 read.
    const Duration offset =
        kind < 5 ? microseconds(1 + i) : milliseconds(25) + microseconds(i);
    const double level = static_cast<double>(rng() % 1000) / 7.0;
    sim.schedule_at(t + offset, [&, comp, kind, level] {
      const ComponentHandle h = handles[comp];
      if (kind < 4) {
        const auto& [shape, target] = phases[kind];
        d2d::apply_phase(meter, h, shape, target);
        oracle.apply_phase(comp, shape, target);
      } else if (kind == 4) {
        meter.add_load(h, MilliAmps{level}, milliseconds(200));
        oracle.add_load(comp, MilliAmps{level}, milliseconds(200));
      } else if (kind == 5) {
        meter.set_current(h, MilliAmps{level});
        oracle.set_current(comp, MilliAmps{level});
      } else {
        ++reads;
        EXPECT_EQ(meter.component_current(h).value,
                  oracle.current(comp).value);
        EXPECT_EQ(meter.instantaneous().value, oracle.instantaneous().value);
        if (kind == 6) {
          EXPECT_EQ(meter.component_charge(h).value, oracle.charge(comp).value);
        } else {
          EXPECT_EQ(meter.total_charge().value, oracle.total_charge().value);
        }
      }
    });
  }
  sim.run();
  EXPECT_GT(reads, 100);
  EXPECT_EQ(meter.instantaneous().value, oracle.instantaneous().value);
  EXPECT_EQ(meter.total_charge().value, oracle.total_charge().value);
}

TEST(EnergyMeter, InvalidHandleThrows) {
  sim::Simulator sim;
  EnergyMeter meter{sim};
  EXPECT_THROW(meter.component_charge(ComponentHandle{5}), std::out_of_range);
}

}  // namespace
}  // namespace d2dhb::energy
