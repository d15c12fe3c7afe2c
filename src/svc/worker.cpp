#include "svc/worker.hpp"

#include <atomic>
#include <exception>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

#include "obs/clock.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "store/campaign_session.hpp"
#include "svc/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace propane::svc {

namespace {

std::int64_t current_pid() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<std::int64_t>(::getpid());
#else
  return 0;
#endif
}

void send(std::ostream& out, const WireMessage& message) {
  out << format_wire(message) << '\n';
  out.flush();
}

}  // namespace

int run_worker_loop(const fi::CampaignRunner& runner,
                    const fi::CampaignConfig& config,
                    const WorkerConfig& worker, std::istream& in,
                    std::ostream& out, WorkerSummary* summary) {
  std::string session_tag = "w";
  session_tag += std::to_string(worker.worker_id);
  store::JournalRunOptions options = worker.journal;
  options.process_count = 1;
  options.process_index = 0;
  options.collect_records = false;

  // Built on the first LEASE; rebuilt (fresh directory scan + fresh
  // executor) when a lease arrives with rescan=1.
  std::unique_ptr<store::JournaledCampaignSession> session;
  std::unique_ptr<fi::CampaignExecutor> executor;
  // Per-lease tallies, bumped by the wrapped on_record below. Atomics:
  // the executor appends from its worker threads.
  std::atomic<std::uint64_t> lease_executed{0};
  std::atomic<std::uint64_t> lease_diverged{0};

  WorkerSummary tally;
  const auto finish_session = [&] {
    if (session == nullptr) return;
    session->finish("worker.done",
                    {{"worker_id", obs::Value(worker.worker_id)},
                     {"leases", obs::Value(tally.leases)}});
    session.reset();
  };

  // HELLO stamps our steady clock: the dispatcher's receipt time dates the
  // offset between its epoch and ours, which `campaign trace` uses to put
  // both processes' telemetry on one timeline.
  send(out,
       HelloMsg{worker.worker_id, current_pid(), obs::steady_now_us()});
  const obs::Telemetry* telemetry = worker.journal.telemetry;

  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::optional<WireMessage> message = parse_wire(line);
    if (!message.has_value()) {
      send(out, FailMsg{0, 0, "malformed dispatcher line: " + line});
      return 1;
    }
    if (std::holds_alternative<ShutdownMsg>(*message)) {
      finish_session();
      if (summary != nullptr) *summary = tally;
      return 0;
    }
    const LeaseMsg* lease = std::get_if<LeaseMsg>(&*message);
    if (lease == nullptr) {
      send(out, FailMsg{0, 0, "unexpected dispatcher message: " + line});
      return 1;
    }
    std::uint64_t lease_span_id = 0;
    try {
      {
        // The whole lease -- directory rescan included -- runs under one
        // span parented on the dispatcher's serve.lease span id from the
        // wire, stitching this process into the campaign trace. The span
        // closes (and its event reaches the sinks, flight ring included)
        // before DONE goes out, so a worker killed right after DONE still
        // leaves the completed lease's span behind.
        obs::Span lease_span(
            telemetry, "worker.lease",
            obs::SpanOptions{
                lease->span_id,
                {{"lease_id", obs::Value(lease->lease_id)},
                 {"worker_id", obs::Value(worker.worker_id)},
                 {"trace_id", obs::Value(lease->trace_id)},
                 {"begin", obs::Value(lease->begin)},
                 {"end", obs::Value(lease->end)},
                 {"rescan", obs::Value(lease->rescan)}}});
        lease_span_id = lease_span.id();
        if (lease->rescan) {
          // The range may hold runs a dead worker already journaled; drop
          // both session and executor so the fresh scan filters them.
          executor.reset();
          session.reset();
        }
        if (session == nullptr) {
          session = std::make_unique<store::JournaledCampaignSession>(
              config, worker.journal_dir, options, session_tag);
        }
        if (executor == nullptr) {
          fi::CampaignHooks hooks = session->hooks();
          hooks.on_record = [&lease_executed, &lease_diverged,
                             append = std::move(hooks.on_record)](
                                const fi::InjectionRecord& record) {
            append(record);
            lease_executed.fetch_add(1, std::memory_order_relaxed);
            if (record.report.any_divergence()) {
              lease_diverged.fetch_add(1, std::memory_order_relaxed);
            }
          };
          executor =
              std::make_unique<fi::CampaignExecutor>(runner, config, hooks);
        }
        lease_executed.store(0, std::memory_order_relaxed);
        lease_diverged.store(0, std::memory_order_relaxed);
        executor->execute_range(
            {static_cast<std::size_t>(lease->begin),
             static_cast<std::size_t>(lease->end)});
      }
      const std::uint64_t executed =
          lease_executed.load(std::memory_order_relaxed);
      const std::uint64_t diverged =
          lease_diverged.load(std::memory_order_relaxed);
      tally.leases += 1;
      tally.executed += executed;
      tally.diverged += diverged;
      // Every record of the range is flushed to a shard (the session's
      // on_record is the durability point), so DONE is safe to send.
      send(out, DoneMsg{lease->lease_id, executed, diverged, lease_span_id});
    } catch (const std::exception& error) {
      send(out, FailMsg{lease->lease_id, lease_span_id, error.what()});
      return 1;
    }
  }
  // EOF without SHUTDOWN: the dispatcher is gone. Every completed lease is
  // already durable and acknowledged, so this is a clean exit.
  finish_session();
  if (summary != nullptr) *summary = tally;
  return 0;
}

}  // namespace propane::svc
