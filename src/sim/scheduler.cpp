#include "sim/scheduler.hpp"

#include "common/contracts.hpp"

namespace propane::sim {

SlotScheduler::SlotScheduler(std::size_t slot_count) : slots_(slot_count) {
  PROPANE_REQUIRE_MSG(slot_count > 0, "need at least one slot");
}

void SlotScheduler::add_slot_task(std::size_t slot, std::string name,
                                  Task task) {
  PROPANE_REQUIRE(slot < slots_.size());
  PROPANE_REQUIRE(task != nullptr);
  slots_[slot].push_back(NamedTask{std::move(name), std::move(task)});
}

void SlotScheduler::add_every_slot_task(std::string name, Task task) {
  PROPANE_REQUIRE(task != nullptr);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    slots_[s].push_back(NamedTask{name, task});
  }
}

void SlotScheduler::add_background_task(std::string name, Task task) {
  PROPANE_REQUIRE(task != nullptr);
  background_.push_back(NamedTask{std::move(name), std::move(task)});
}

void SlotScheduler::run_slot() {
  for (const NamedTask& t : slots_[slot_]) t.task(now_);
  for (const NamedTask& t : background_) t.task(now_);
  now_ += kMillisecond;
  ++slot_;
  if (slot_ == slots_.size()) {
    slot_ = 0;
    ++cycles_;
  }
}

void SlotScheduler::run_cycles(std::size_t n) {
  const std::size_t total = n * slots_.size();
  for (std::size_t i = 0; i < total; ++i) run_slot();
}

void SlotScheduler::run_until(SimTime deadline) {
  while (now_ < deadline) run_slot();
}

std::vector<std::string> SlotScheduler::slot_task_names(
    std::size_t slot) const {
  PROPANE_REQUIRE(slot < slots_.size());
  std::vector<std::string> names;
  names.reserve(slots_[slot].size());
  for (const NamedTask& t : slots_[slot]) names.push_back(t.name);
  return names;
}

}  // namespace propane::sim
