// Slot-based non-preemptive scheduler (Section 7.1).
//
// The target system "operates in seven 1-ms-slots. In each slot, one or more
// modules (except for CALC) are invoked"; CALC is "a background task [that]
// runs when other modules are dormant". This scheduler reproduces that
// execution model: a fixed cycle of 1-ms slots, each with a static task
// list, plus background tasks executed at the end of every slot (the slack
// left by the slot tasks -- in simulated time the slot tasks take zero
// time, so the background task runs once per slot).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/simtime.hpp"

namespace propane::sim {

/// A schedulable activity. Receives the slot start time.
using Task = std::function<void(SimTime now)>;

class SlotScheduler {
 public:
  /// Creates a scheduler with `slot_count` one-millisecond slots per cycle.
  explicit SlotScheduler(std::size_t slot_count);

  std::size_t slot_count() const { return slots_.size(); }

  /// Registers a task to run in slot `slot` of every cycle. Tasks within a
  /// slot run in registration order (non-preemptive, deterministic).
  void add_slot_task(std::size_t slot, std::string name, Task task);

  /// Registers a task to run in every slot (period = 1 ms).
  void add_every_slot_task(std::string name, Task task);

  /// Registers a background task, run at the end of each slot after all
  /// slot tasks (the paper's CALC).
  void add_background_task(std::string name, Task task);

  /// Executes the tasks of the current slot (plus background), then
  /// advances time by one millisecond and moves to the next slot.
  void run_slot();

  /// Runs `n` full cycles (n * slot_count slots).
  void run_cycles(std::size_t n);

  /// Runs slots until `now() >= deadline`.
  void run_until(SimTime deadline);

  SimTime now() const { return now_; }
  std::size_t current_slot() const { return slot_; }
  std::uint64_t cycles_completed() const { return cycles_; }

  /// Names of the tasks bound to a slot (diagnostics / tests).
  std::vector<std::string> slot_task_names(std::size_t slot) const;

 private:
  struct NamedTask {
    std::string name;
    Task task;
  };

  std::vector<std::vector<NamedTask>> slots_;
  std::vector<NamedTask> background_;
  SimTime now_ = 0;
  std::size_t slot_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace propane::sim
