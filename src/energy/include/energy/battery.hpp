// Finite battery model. Used for failure injection: a relay that drains
// its battery mid-connection triggers the framework's feedback/fallback
// path (Section III-A, "the relay has ran out of its battery").
#pragma once

#include <functional>

#include "common/units.hpp"
#include "energy/energy_meter.hpp"

namespace d2dhb::energy {

class Battery {
 public:
  /// `capacity` is the usable charge; `on_depleted` fires once when the
  /// meter's cumulative draw crosses it (checked on poll()).
  Battery(EnergyMeter& meter, MicroAmpHours capacity,
          std::function<void()> on_depleted = {});

  /// Re-reads the meter and fires the depletion callback if crossed.
  /// Returns remaining charge (clamped at zero).
  MicroAmpHours poll();

  MicroAmpHours capacity() const { return capacity_; }
  bool depleted() const { return depleted_; }
  /// Remaining fraction in [0, 1]. A pure read: only poll() fires the
  /// depletion callback, so observing the level (a metrics snapshot, an
  /// advert refresh) never changes the simulation.
  double level();

 private:
  MicroAmpHours remaining();

  EnergyMeter& meter_;
  MicroAmpHours capacity_;
  std::function<void()> on_depleted_;
  bool depleted_{false};
};

}  // namespace d2dhb::energy
