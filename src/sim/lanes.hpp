// Lane sets for lockstep batched simulation.
//
// A batched run simulates N near-identical executions ("lanes") of the same
// system in lockstep: one task invocation updates all live lanes over
// structure-of-arrays state. A LaneMask names the subset of lanes a task
// must update. Retired lanes (divergence fully resolved, or provably
// re-converged with the golden lane) are cleared from the mask; batch-aware
// update functions may still touch them -- a retired lane's state is dead
// by definition -- but everything that *interprets* lane state (divergence
// tracking, trace extraction) must consult the mask first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"

namespace propane::sim {

/// A fixed-capacity set of lane indices, stored as a bit vector. Capacity
/// is set at construction; membership changes are O(1), iteration visits
/// set lanes in ascending order.
class LaneMask {
 public:
  LaneMask() = default;
  /// All lanes in [0, lane_count) initially `set`.
  explicit LaneMask(std::size_t lane_count, bool set = false)
      : lanes_(lane_count), words_((lane_count + 63) / 64, 0) {
    if (set) {
      for (std::size_t lane = 0; lane < lane_count; ++lane) this->set(lane);
    }
  }

  std::size_t lane_count() const { return lanes_; }

  bool test(std::size_t lane) const {
    PROPANE_REQUIRE(lane < lanes_);
    return (words_[lane >> 6] >> (lane & 63)) & 1u;
  }
  void set(std::size_t lane) {
    PROPANE_REQUIRE(lane < lanes_);
    words_[lane >> 6] |= std::uint64_t{1} << (lane & 63);
  }
  void reset(std::size_t lane) {
    PROPANE_REQUIRE(lane < lanes_);
    words_[lane >> 6] &= ~(std::uint64_t{1} << (lane & 63));
  }

  /// Number of set lanes.
  std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint64_t word : words_) {
      n += static_cast<std::size_t>(__builtin_popcountll(word));
    }
    return n;
  }
  bool any() const {
    for (const std::uint64_t word : words_) {
      if (word != 0) return true;
    }
    return false;
  }
  bool none() const { return !any(); }

  /// Calls `fn(lane)` for every set lane, ascending. `fn` may reset the
  /// current or later lanes but must not grow the mask.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const auto bit =
            static_cast<std::size_t>(__builtin_ctzll(word));
        fn(w * 64 + bit);
        word &= word - 1;
      }
    }
  }

  bool operator==(const LaneMask&) const = default;

 private:
  std::size_t lanes_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace propane::sim
