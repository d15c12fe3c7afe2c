#include "fi/signal_bus.hpp"

#include <algorithm>

namespace propane::fi {

BusSignalId SignalBus::add_signal(std::string name, std::uint16_t initial) {
  PROPANE_REQUIRE_MSG(!name.empty(), "signal name must be non-empty");
  PROPANE_REQUIRE_MSG(!find(name).has_value(),
                      "duplicate signal name: " + name);
  const auto id = static_cast<BusSignalId>(values_.size());
  values_.push_back(initial);
  initial_.push_back(initial);
  names_.push_back(std::move(name));
  return id;
}

const std::string& SignalBus::name(BusSignalId id) const {
  PROPANE_REQUIRE(id < names_.size());
  return names_[id];
}

std::optional<BusSignalId> SignalBus::find(std::string_view name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return std::nullopt;
  return static_cast<BusSignalId>(it - names_.begin());
}

void SignalBus::reset() { values_ = initial_; }

}  // namespace propane::fi
