#include "energy/energy_meter.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace d2dhb::energy {

ComponentHandle EnergyMeter::register_component(std::string name,
                                                MilliAmps initial) {
  components_.push_back(Component{std::move(name), initial, MicroAmpHours{},
                                  sim_.now(), {}});
  return ComponentHandle{components_.size() - 1};
}

void EnergyMeter::advance(Component& c, TimePoint t) {
  if (t > c.last_update) {
    c.accumulated += integrate(c.current, t - c.last_update);
    c.last_update = t;
  }
}

void EnergyMeter::apply_due(Component& c) {
  const TimePoint now = sim_.now();
  auto due = c.steps.begin();
  for (; due != c.steps.end() && due->when <= now; ++due) {
    advance(c, due->when);
    c.current += due->delta;
  }
  c.steps.erase(c.steps.begin(), due);
}

void EnergyMeter::settle(Component& c) {
  apply_due(c);
  advance(c, sim_.now());
}

void EnergyMeter::push_step(Component& c, TimePoint when, MilliAmps delta) {
  // After every step at the same instant: insertion order breaks ties.
  const auto at = std::upper_bound(
      c.steps.begin(), c.steps.end(), when,
      [](TimePoint t, const Step& s) { return t < s.when; });
  c.steps.insert(at, Step{when, delta});
}

void EnergyMeter::set_current(ComponentHandle component, MilliAmps current) {
  auto& c = components_.at(component.index);
  settle(c);
  c.current = current;
}

void EnergyMeter::add_load(ComponentHandle component, MilliAmps extra,
                           Duration duration) {
  const Load load{Duration::zero(), extra, duration};
  add_loads(component, std::span<const Load>{&load, 1});
}

void EnergyMeter::add_loads(ComponentHandle component,
                            std::span<const Load> loads) {
  auto& c = components_.at(component.index);
  for (const Load& load : loads) {
    if (load.duration <= Duration::zero()) {
      throw std::invalid_argument(
          "EnergyMeter::add_loads: duration must be > 0");
    }
  }
  settle(c);
  const TimePoint now = sim_.now();
  for (const Load& load : loads) {
    if (load.start > Duration::zero()) {
      push_step(c, now + load.start, load.extra);
    } else {
      c.current += load.extra;
      push_step(c, now + load.duration, MilliAmps{-load.extra.value});
    }
  }
  for (const Load& load : loads) {
    if (load.start > Duration::zero()) {
      push_step(c, now + load.start + load.duration,
                MilliAmps{-load.extra.value});
    }
  }
}

MilliAmps EnergyMeter::instantaneous() {
  MilliAmps sum;
  for (auto& c : components_) {
    apply_due(c);
    sum += c.current;
  }
  return sum;
}

MilliAmps EnergyMeter::component_current(ComponentHandle component) {
  auto& c = components_.at(component.index);
  apply_due(c);
  return c.current;
}

MicroAmpHours EnergyMeter::total_charge() {
  MicroAmpHours sum;
  for (auto& c : components_) {
    settle(c);
    sum += c.accumulated;
  }
  return sum;
}

MicroAmpHours EnergyMeter::component_charge(ComponentHandle component) {
  auto& c = components_.at(component.index);
  settle(c);
  return c.accumulated;
}

const std::string& EnergyMeter::component_name(
    ComponentHandle component) const {
  return components_.at(component.index).name;
}

void EnergyMeter::print_report(std::ostream& os) {
  const double total = total_charge().value;  // settles everything
  os << "  component            now (mA)   charge (uAh)   share\n";
  for (const auto& c : components_) {
    const double share = total > 0.0 ? c.accumulated.value / total : 0.0;
    os << "  " << std::left << std::setw(20) << c.name << std::right
       << std::fixed << std::setw(9) << std::setprecision(1)
       << c.current.value << "   " << std::setw(12) << std::setprecision(1)
       << c.accumulated.value << "   " << std::setw(5)
       << std::setprecision(1) << share * 100.0 << "%\n";
  }
  os << "  " << std::left << std::setw(20) << "TOTAL" << std::right
     << std::setw(9) << ' ' << "   " << std::fixed << std::setw(12)
     << std::setprecision(1) << total << "\n";
}

}  // namespace d2dhb::energy
