// Golden runs with checkpoint capture (FastFlip-style prefix reuse).
//
// Every injection run of a campaign re-executes, deterministically and
// unchanged, the golden run's prefix up to the tick in which the injection
// fires. The warm-start engine captures, during each test case's golden
// run, a snapshot of the complete system state at the earliest possible
// fire tick of every planned injection time; the lockstep batch runner
// (batch_runner.hpp) starts each batch from those snapshots instead of
// t=0.
//
// Per-run RNG streams are a pure function of (campaign seed, run identity)
// and are only consumed from the fire tick onward, and an idle injection
// driver has no side effect on the simulation, so a warm-started run is
// bit-identical to a cold one -- enforced against the cold scalar
// reference by tests/fi/warm_start_test.cpp and the integration
// byte-identical-CSV test.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "arrestment/system.hpp"

namespace propane::arr {

/// Golden-run execution with checkpoint capture. Thread-safe; checkpoints
/// are kept for the engine's lifetime (memory is O(test_cases x distinct
/// fire times x system state); no trace prefix is kept, since the batch
/// kernel tracks divergence online from the checkpoint tick).
class WarmStartEngine {
 public:
  /// Run state frozen at the start of tick `ms`: the system after ticks
  /// 0..ms-1.
  struct Checkpoint {
    std::unique_ptr<ArrestmentSystem> system;
    std::uint64_t ms = 0;
  };

  /// Plans one checkpoint per distinct fire tick of `config.injections`.
  WarmStartEngine(std::vector<TestCase> cases,
                  const fi::CampaignConfig& config, sim::SimTime duration);

  /// Executes the golden run `request` names (it must carry no
  /// injection) and captures that test case's checkpoints on the way.
  fi::TraceSet golden_run(const fi::RunRequest& request);

  /// The checkpoint frozen at fire tick `fire_ms` of `test_case`, or null
  /// when none exists (not planned, or that golden has not executed yet).
  std::shared_ptr<const Checkpoint> lookup(std::uint32_t test_case,
                                           std::uint64_t fire_ms) const;

  const std::vector<TestCase>& cases() const { return cases_; }
  sim::SimTime duration() const { return duration_; }
  std::uint64_t duration_ms() const { return duration_ms_; }

 private:
  void publish(
      std::uint32_t test_case,
      std::vector<std::pair<std::size_t, std::unique_ptr<ArrestmentSystem>>>
          snapshots);

  std::vector<TestCase> cases_;
  sim::SimTime duration_;
  std::uint64_t duration_ms_;
  std::vector<std::uint64_t> checkpoint_ms_;  // ascending, unique
  /// slots_[test_case][i] holds the checkpoint at checkpoint_ms_[i], set
  /// once during that test case's golden run. The mutex covers publish/
  /// lookup for callers that overlap goldens with injections;
  /// fi::run_campaign's golden phase barrier already orders them.
  mutable std::mutex mutex_;
  std::vector<std::vector<std::shared_ptr<const Checkpoint>>> slots_;
};

}  // namespace propane::arr
