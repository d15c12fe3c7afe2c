#include "arrestment/dist_s.hpp"

#include "arrestment/constants.hpp"
#include "arrestment/lane_mask.hpp"

namespace propane::arr {

void DistSModule::step(fi::SignalBus& bus) {
  const std::uint16_t pacnt = bus.read(map_.pacnt);
  const std::uint16_t tic1 = bus.read(map_.tic1);
  const std::uint16_t tcnt = bus.read(map_.tcnt);

  // New pulses since the previous tick; 16-bit wrap-safe.
  const auto delta = static_cast<std::uint16_t>(pacnt - last_pacnt_);
  last_pacnt_ = pacnt;

  // Total pulse count for the arrestment, accumulated in the shared
  // variable itself.
  bus.write(map_.pulscnt,
            static_cast<std::uint16_t>(bus.read(map_.pulscnt) + delta));

  if (delta == 0) {
    ++no_pulse_ms_;
  } else {
    no_pulse_ms_ = 0;
  }

  // slow_speed: either no pulse for kSlowSpeedGapMs consecutive ticks, or
  // -- when at least one tick passed without a pulse -- the capture/timer
  // distance already exceeds the slow-speed gap. The second path reacts a
  // few milliseconds faster and is what couples TIC1/TCNT into this flag.
  const auto age_us = static_cast<std::uint16_t>(tcnt - tic1);
  const bool slow = no_pulse_ms_ >= kSlowSpeedGapMs ||
                    (no_pulse_ms_ >= 1 && age_us > kSlowSpeedGapUs);
  bus.write(map_.slow_speed, slow ? 1 : 0);

  // stopped: no rotation for kStoppedGapMs. Driven by the pulse-free
  // counter alone; a flipped sensor bit can fake rotation but it is hard
  // to fake a standstill (cf. OB2: the module has a built-in resiliency
  // against errors in this output).
  bus.write(map_.stopped, no_pulse_ms_ >= kStoppedGapMs ? 1 : 0);
}

namespace {

/// Free function with __restrict parameters: the rows are all uint16 so
/// type-based aliasing cannot tell them apart, and the runtime alias
/// checks the vectorizer would otherwise need exceed its versioning
/// limit. GCC only honours __restrict on parameters, hence the kernel.
void dist_s_kernel(std::size_t lanes,
                   const std::uint16_t* __restrict pacnt,
                   const std::uint16_t* __restrict tic1,
                   const std::uint16_t* __restrict tcnt,
                   std::uint16_t* __restrict pulscnt,
                   std::uint16_t* __restrict slow,
                   std::uint16_t* __restrict stopped,
                   std::uint16_t* __restrict last,
                   std::uint32_t* __restrict gap) {
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto delta = static_cast<std::uint16_t>(pacnt[l] - last[l]);
    last[l] = pacnt[l];
    pulscnt[l] = static_cast<std::uint16_t>(pulscnt[l] + delta);
    // The increment is hoisted out of the select: a conditional `+ 1`
    // is a predicated statement the vectorizer rejects.
    const std::uint32_t bumped = gap[l] + 1;
    const std::uint32_t g = delta == 0 ? bumped : 0;
    gap[l] = g;
    const auto age_us = static_cast<std::uint16_t>(tcnt[l] - tic1[l]);
    const bool is_slow =
        g >= kSlowSpeedGapMs || (g >= 1 && age_us > kSlowSpeedGapUs);
    slow[l] = is_slow ? 1 : 0;
    stopped[l] = g >= kStoppedGapMs ? 1 : 0;
  }
}

}  // namespace

void BatchedDistS::step_lanes(fi::BatchedSignalBus& bus) {
  dist_s_kernel(last_pacnt_.size(), bus.lane_values(map_.pacnt).data(),
                bus.lane_values(map_.tic1).data(),
                bus.lane_values(map_.tcnt).data(),
                bus.lane_values(map_.pulscnt).data(),
                bus.lane_values(map_.slow_speed).data(),
                bus.lane_values(map_.stopped).data(), last_pacnt_.data(),
                no_pulse_ms_.data());
}

std::uint64_t BatchedDistS::idle_lanes(const fi::BatchedSignalBus& bus) const {
  const std::span<const std::uint16_t> pacnt = bus.lane_values(map_.pacnt);
  std::uint8_t idle[64] = {};
  for (std::size_t l = 0; l < last_pacnt_.size(); ++l) {
    idle[l] = last_pacnt_[l] == pacnt[l];
  }
  return pack_lane_bytes(idle);
}

std::uint64_t BatchedDistS::pulse_free_lanes(std::uint32_t ms) const {
  std::uint8_t pulse_free[64] = {};
  for (std::size_t l = 0; l < no_pulse_ms_.size(); ++l) {
    pulse_free[l] = no_pulse_ms_[l] >= ms;
  }
  return pack_lane_bytes(pulse_free);
}

std::uint64_t BatchedDistS::slow_latched_lanes() const {
  return pulse_free_lanes(kSlowSpeedGapMs);
}

std::uint64_t BatchedDistS::stopped_latched_lanes() const {
  return pulse_free_lanes(kStoppedGapMs);
}

}  // namespace propane::arr
