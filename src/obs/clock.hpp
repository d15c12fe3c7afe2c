// Monotonic time base shared by all telemetry.
//
// Event timestamps and span durations use the steady clock, expressed in
// microseconds since the first telemetry call in the process: numbers stay
// small, strictly monotonic, and immune to wall-clock adjustments. The
// epoch is process-local: every session that appends to a journal's
// telemetry log restarts the clock, so timestamps compare only within one
// session. `propane campaign trace` therefore renders each session as its
// own process track, and no two processes' timestamps are ever merged.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace propane::obs {

/// Microseconds on the steady clock since the first call in this process.
inline std::uint64_t steady_now_us() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

/// Lock-free rate limiter: ready() is true for exactly one caller per
/// interval (the first call always fires). Used to keep periodic emissions
/// (HUD frames, queue-depth samples) off the hot path.
class Throttle {
 public:
  explicit Throttle(std::uint64_t interval_us) : interval_us_(interval_us) {}

  bool ready(std::uint64_t now_us) {
    std::uint64_t last = last_us_.load(std::memory_order_relaxed);
    if (last != kNever && now_us - last < interval_us_) return false;
    // One winner per interval: the losing CAS means another thread already
    // claimed this tick.
    return last_us_.compare_exchange_strong(last, now_us,
                                            std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kNever = ~0ULL;
  std::uint64_t interval_us_;
  std::atomic<std::uint64_t> last_us_{kNever};
};

}  // namespace propane::obs
