#include "arrestment/warm_start.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace propane::arr {

WarmStartEngine::WarmStartEngine(std::vector<TestCase> cases,
                                 const fi::CampaignConfig& config,
                                 sim::SimTime duration)
    : cases_(std::move(cases)),
      duration_(duration),
      duration_ms_(sim::to_milliseconds(duration)) {
  PROPANE_REQUIRE(!cases_.empty());
  // Distinct fire ticks, ascending. A fire tick of 0 has no prefix to
  // reuse, and one at/after the run end never fires: both need none.
  for (const fi::InjectionSpec& spec : config.injections) {
    const std::uint64_t fire = fi::injection_fire_ms(spec.when);
    if (fire > 0 && fire < duration_ms_) checkpoint_ms_.push_back(fire);
  }
  std::sort(checkpoint_ms_.begin(), checkpoint_ms_.end());
  checkpoint_ms_.erase(
      std::unique(checkpoint_ms_.begin(), checkpoint_ms_.end()),
      checkpoint_ms_.end());
  slots_.resize(cases_.size());
  for (auto& per_case : slots_) per_case.resize(checkpoint_ms_.size());
}

fi::TraceSet WarmStartEngine::golden_run(const fi::RunRequest& request) {
  PROPANE_REQUIRE(request.test_case < cases_.size());
  PROPANE_REQUIRE_MSG(!request.injection.has_value(),
                      "injection runs execute as lockstep batches");
  ArrestmentSystem system(cases_[request.test_case]);
  fi::TraceRecorder recorder(system.bus(), duration_ms_);
  RunOptions options;
  options.duration = duration_;
  options.rng_seed = request.rng_seed;

  std::vector<std::pair<std::size_t, std::unique_ptr<ArrestmentSystem>>>
      snapshots;
  std::size_t next = 0;
  while (system.now() < duration_) {
    if (next < checkpoint_ms_.size() &&
        system.current_ms() == checkpoint_ms_[next]) {
      snapshots.emplace_back(next, std::make_unique<ArrestmentSystem>(system));
      ++next;
    }
    system.tick(options);
    recorder.sample();
  }
  publish(request.test_case, std::move(snapshots));
  return recorder.take();
}

void WarmStartEngine::publish(
    std::uint32_t test_case,
    std::vector<std::pair<std::size_t, std::unique_ptr<ArrestmentSystem>>>
        snapshots) {
  std::scoped_lock lock(mutex_);
  for (auto& [slot, system] : snapshots) {
    auto checkpoint = std::make_shared<Checkpoint>();
    checkpoint->system = std::move(system);
    checkpoint->ms = checkpoint_ms_[slot];
    slots_[test_case][slot] = std::move(checkpoint);
  }
}

std::shared_ptr<const WarmStartEngine::Checkpoint> WarmStartEngine::lookup(
    std::uint32_t test_case, std::uint64_t fire_ms) const {
  PROPANE_REQUIRE(test_case < cases_.size());
  const auto it = std::lower_bound(checkpoint_ms_.begin(),
                                   checkpoint_ms_.end(), fire_ms);
  if (it == checkpoint_ms_.end() || *it != fire_ms) return nullptr;
  const auto slot = static_cast<std::size_t>(it - checkpoint_ms_.begin());
  std::scoped_lock lock(mutex_);
  return slots_[test_case][slot];
}

}  // namespace propane::arr
