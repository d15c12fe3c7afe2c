#include "arrestment/clock_module.hpp"

#include "arrestment/constants.hpp"

namespace propane::arr {

void ClockModule::step(fi::SignalBus& bus) {
  bus.write(map_.mscnt,
            static_cast<std::uint16_t>(bus.read(map_.mscnt) + 1));
  bus.write(map_.ms_slot_nbr,
            static_cast<std::uint16_t>(
                (bus.read(map_.ms_slot_nbr) + 1u) % kSlotCount));
}

namespace {

/// Both counters in one indexed pass over their rows. The slot number
/// wraps through modulos, not a compare-and-select: a corrupted
/// ms_slot_nbr >= kSlotCount must wrap exactly as the scalar module's
/// (v + 1) % kSlotCount does. Reducing v first, as (v % 7 + 1) % 7, gives
/// the same value for every 16-bit v and keeps the vector arithmetic in 16
/// bits (v + 1 overflows them at v = 65535).
void step_lanes_kernel(std::size_t lanes, std::uint16_t* __restrict mscnt,
                       std::uint16_t* __restrict slot) {
  for (std::size_t l = 0; l < lanes; ++l) {
    mscnt[l] = static_cast<std::uint16_t>(mscnt[l] + 1);
    const auto next = static_cast<std::uint16_t>(slot[l] % kSlotCount + 1);
    slot[l] = static_cast<std::uint16_t>(next % kSlotCount);
  }
}

}  // namespace

void BatchedClock::step_lanes(fi::BatchedSignalBus& bus) {
  step_lanes_kernel(bus.lane_count(), bus.lane_values(map_.mscnt).data(),
                    bus.lane_values(map_.ms_slot_nbr).data());
}

}  // namespace propane::arr
