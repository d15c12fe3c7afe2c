#include "obs/progress.hpp"

#include <cinttypes>
#include <cmath>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace propane::obs {

namespace {

bool stream_is_tty(std::FILE* stream) {
#if defined(__unix__) || defined(__APPLE__)
  return isatty(fileno(stream)) == 1;
#else
  (void)stream;
  return false;
#endif
}

std::string format_bytes(std::uint64_t bytes) {
  char buffer[32];
  if (bytes >= 1'000'000'000ULL) {
    std::snprintf(buffer, sizeof(buffer), "%.2f GB",
                  static_cast<double>(bytes) / 1e9);
  } else if (bytes >= 1'000'000ULL) {
    std::snprintf(buffer, sizeof(buffer), "%.1f MB",
                  static_cast<double>(bytes) / 1e6);
  } else if (bytes >= 1'000ULL) {
    std::snprintf(buffer, sizeof(buffer), "%.1f kB",
                  static_cast<double>(bytes) / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%" PRIu64 " B", bytes);
  }
  return buffer;
}

std::string format_eta(double seconds) {
  char buffer[32];
  if (seconds <= 0.0 || !std::isfinite(seconds)) return "--";
  if (seconds < 90.0) {
    std::snprintf(buffer, sizeof(buffer), "%.0fs", seconds);
  } else if (seconds < 5400.0) {
    std::snprintf(buffer, sizeof(buffer), "%.0fm%02.0fs",
                  std::floor(seconds / 60.0),
                  seconds - std::floor(seconds / 60.0) * 60.0);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1fh", seconds / 3600.0);
  }
  return buffer;
}

}  // namespace

ProgressReporter::ProgressReporter(MetricsRegistry& metrics,
                                   const Options& options)
    : executed_(metrics.counter("campaign.runs.injection")),
      skipped_(metrics.counter("campaign.runs.skipped")),
      diverged_(metrics.counter("campaign.runs.diverged")),
      replayed_(metrics.counter("delta.hits")),
      journal_bytes_(metrics.counter("journal.append.bytes")),
      total_(options.total_runs),
      enabled_(options.force ||
               stream_is_tty(options.out != nullptr ? options.out : stderr)),
      out_(options.out != nullptr ? options.out : stderr),
      throttle_(options.min_interval_us),
      started_us_(steady_now_us()) {}

ProgressReporter::~ProgressReporter() { finish(); }

ProgressReporter::Snapshot ProgressReporter::snapshot() const {
  Snapshot snap;
  snap.completed = executed_.value();
  snap.skipped = skipped_.value();
  snap.replayed = replayed_.value();
  snap.diverged = diverged_.value();
  snap.total = total_;
  snap.journal_bytes = journal_bytes_.value();
  snap.elapsed_s =
      static_cast<double>(steady_now_us() - started_us_) / 1e6;
  if (snap.elapsed_s > 0.0) {
    snap.runs_per_s = static_cast<double>(snap.completed) / snap.elapsed_s;
  }
  const std::size_t done = snap.completed + snap.skipped;
  if (snap.total > done && snap.runs_per_s > 0.0) {
    snap.eta_s =
        static_cast<double>(snap.total - done) / snap.runs_per_s;
  }
  if (snap.completed > 0) {
    snap.divergence_rate = static_cast<double>(snap.diverged) /
                           static_cast<double>(snap.completed);
  }
  return snap;
}

std::string ProgressReporter::render_line() const {
  const Snapshot s = snapshot();
  const std::size_t done = s.completed + s.skipped;
  const double pct =
      s.total > 0
          ? 100.0 * static_cast<double>(done) / static_cast<double>(s.total)
          : 0.0;
  char head[128];
  std::snprintf(head, sizeof(head),
                "[campaign] %zu/%zu runs %.1f%% | %.1f runs/s | ETA %s",
                done, s.total, pct, s.runs_per_s,
                format_eta(s.eta_s).c_str());
  char replay[48];
  replay[0] = '\0';
  if (s.replayed > 0) {
    std::snprintf(replay, sizeof(replay), " | replay %zu", s.replayed);
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail), " | div %.1f%% | journal %s",
                100.0 * s.divergence_rate,
                format_bytes(s.journal_bytes).c_str());
  return std::string(head) + replay + tail;
}

void ProgressReporter::maybe_render() {
  if (!enabled_ || !throttle_.ready(steady_now_us())) return;
  // Only one frame at a time; a losing thread just skips its frame.
  std::unique_lock lock(render_mu_, std::try_to_lock);
  if (!lock.owns_lock() || finished_) return;
  std::fprintf(out_, "\r%s\x1b[K", render_line().c_str());
  std::fflush(out_);
}

void ProgressReporter::finish() {
  if (!enabled_) return;
  std::lock_guard lock(render_mu_);
  if (finished_) return;
  finished_ = true;
  std::fprintf(out_, "\r%s\x1b[K\n", render_line().c_str());
  std::fflush(out_);
}

}  // namespace propane::obs
