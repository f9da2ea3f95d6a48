#include "energy/battery.hpp"

#include <algorithm>
#include <utility>

namespace d2dhb::energy {

Battery::Battery(EnergyMeter& meter, MicroAmpHours capacity,
                 std::function<void()> on_depleted)
    : meter_(meter), capacity_(capacity), on_depleted_(std::move(on_depleted)) {}

MicroAmpHours Battery::remaining() {
  const MicroAmpHours used = meter_.total_charge();
  return MicroAmpHours{std::max(0.0, capacity_.value - used.value)};
}

MicroAmpHours Battery::poll() {
  const MicroAmpHours left = remaining();
  if (!depleted_ && left.value <= 0.0) {
    depleted_ = true;
    if (on_depleted_) on_depleted_();
  }
  return left;
}

double Battery::level() {
  if (capacity_.value <= 0.0) return 0.0;
  return remaining().value / capacity_.value;
}

}  // namespace d2dhb::energy
