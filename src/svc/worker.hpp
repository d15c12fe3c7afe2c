// Campaign-service worker: executes leased run ranges against a shared
// journal directory.
//
// A worker is one process (`propane campaign worker`) speaking the wire
// protocol (svc/wire.hpp) on stdin/stdout. It is deliberately passive: it
// announces itself with HELLO, then executes whatever LEASE ranges the
// dispatcher sends, answering each with DONE once every record of the
// range is durably journaled. All crash-safety lives in the journal --
// a SIGKILLed worker loses only its in-flight runs, and the records it
// *did* append survive for whichever worker inherits the requeued range.
//
// The protocol loop is written against std::istream/std::ostream so unit
// tests can drive a worker through stringstreams, no subprocess needed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>

#include "fi/campaign.hpp"
#include "store/resume.hpp"

namespace propane::svc {

struct WorkerConfig {
  /// Identity the dispatcher assigned (--worker-id); woven into the shard
  /// session tag ("w<id>") so concurrent workers never race for shard names.
  std::uint32_t worker_id = 0;
  std::filesystem::path journal_dir;
  /// Session options (shard_count, telemetry, ...). process_count/index are
  /// ignored: range ownership comes from leases, not a modulo split.
  store::JournalRunOptions journal;
};

struct WorkerSummary {
  std::uint64_t leases = 0;
  std::uint64_t executed = 0;
  std::uint64_t diverged = 0;
};

/// Runs the worker protocol loop until SHUTDOWN or EOF on `in`. Returns a
/// process exit code: 0 on clean shutdown (or dispatcher EOF -- every
/// completed lease is already durable), 1 on a protocol error or a failed
/// lease (reported to the dispatcher as FAIL first).
///
/// The campaign session and executor are built lazily on the first LEASE
/// (a dispatcher may shut a worker down without ever granting one) and
/// rebuilt from a fresh directory scan when a lease carries rescan=1 --
/// the range may contain runs a dead worker already journaled, and the
/// re-scan keeps them from executing twice.
/// `runner` may be a plain scalar fi::RunFunction (implicit conversion to
/// a width-1 batch adaptor) or a batched runner; leased ranges execute as
/// lockstep batches with journal records identical to the scalar
/// reference.
int run_worker_loop(const fi::CampaignRunner& runner,
                    const fi::CampaignConfig& config,
                    const WorkerConfig& worker, std::istream& in,
                    std::ostream& out, WorkerSummary* summary = nullptr);

}  // namespace propane::svc
