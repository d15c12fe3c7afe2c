// ProgressReporter: snapshot arithmetic over the registry counters it
// reads, HUD line content, TTY gating and idempotent finish. Rendering goes
// to a tmpfile, never a real terminal.
#include "obs/progress.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

namespace propane::obs {
namespace {

class TempStream {
 public:
  TempStream() : file_(std::tmpfile()) {}
  ~TempStream() {
    if (file_ != nullptr) std::fclose(file_);
  }
  std::FILE* get() { return file_; }

  std::string contents() {
    std::string text;
    std::fflush(file_);
    std::rewind(file_);
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file_)) > 0) {
      text.append(buffer, n);
    }
    return text;
  }

 private:
  std::FILE* file_ = nullptr;
};

TEST(Progress, DisabledWhenOutputIsNotATty) {
  TempStream out;
  MetricsRegistry metrics;
  ProgressReporter::Options options;
  options.out = out.get();
  ProgressReporter hud(metrics, options);
  EXPECT_FALSE(hud.enabled());
  metrics.counter("campaign.runs.injection").add(1);
  hud.maybe_render();
  hud.finish();
  EXPECT_TRUE(out.contents().empty());  // nothing rendered
}

TEST(Progress, SnapshotReadsTheRegistry) {
  TempStream out;
  MetricsRegistry metrics;
  ProgressReporter::Options options;
  options.out = out.get();
  options.total_runs = 100;
  ProgressReporter hud(metrics, options);
  // The counters the campaign, the delta engine and the journal keep.
  metrics.counter("campaign.runs.injection").add(4);
  metrics.counter("campaign.runs.diverged").add(1);
  metrics.counter("campaign.runs.skipped").add(6);
  metrics.counter("delta.hits").add(2);
  metrics.counter("journal.append.bytes").add(2048);

  // Let the steady clock tick so elapsed/rate/ETA are strictly positive.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const ProgressReporter::Snapshot snap = hud.snapshot();
  EXPECT_EQ(snap.completed, 4u);
  EXPECT_EQ(snap.skipped, 6u);
  EXPECT_EQ(snap.replayed, 2u);
  EXPECT_EQ(snap.diverged, 1u);
  EXPECT_EQ(snap.total, 100u);
  EXPECT_EQ(snap.journal_bytes, 2048u);
  EXPECT_DOUBLE_EQ(snap.divergence_rate, 0.25);
  EXPECT_GT(snap.elapsed_s, 0.0);
  EXPECT_GT(snap.runs_per_s, 0.0);
  EXPECT_GT(snap.eta_s, 0.0);
}

TEST(Progress, RenderLineShowsTheEssentials) {
  TempStream out;
  MetricsRegistry metrics;
  ProgressReporter::Options options;
  options.out = out.get();
  options.total_runs = 10;
  ProgressReporter hud(metrics, options);
  metrics.counter("campaign.runs.injection").add(5);
  metrics.counter("campaign.runs.diverged").add(1);
  metrics.counter("campaign.runs.skipped").add(2);
  metrics.counter("delta.hits").add(2);
  metrics.counter("journal.append.bytes").add(1500);
  const std::string line = hud.render_line();
  EXPECT_NE(line.find("[campaign]"), std::string::npos);
  // Replayed runs are among the skipped ones: done = executed + skipped.
  EXPECT_NE(line.find("7/10 runs"), std::string::npos);
  EXPECT_NE(line.find("runs/s"), std::string::npos);
  EXPECT_NE(line.find("replay 2"), std::string::npos);
  EXPECT_NE(line.find("div 20.0%"), std::string::npos);
  EXPECT_NE(line.find("journal 1.5 kB"), std::string::npos);
}

TEST(Progress, ForcedRenderingWritesFramesAndFinalNewline) {
  TempStream out;
  MetricsRegistry metrics;
  ProgressReporter::Options options;
  options.out = out.get();
  options.total_runs = 2;
  options.force = true;           // tmpfile is not a TTY; force the HUD on
  options.min_interval_us = 0;    // no throttling in the test
  ProgressReporter hud(metrics, options);
  EXPECT_TRUE(hud.enabled());
  metrics.counter("campaign.runs.injection").add(1);
  hud.maybe_render();
  hud.finish();
  hud.finish();  // idempotent
  hud.maybe_render();  // no frame after the final one
  const std::string text = out.contents();
  EXPECT_NE(text.find("[campaign] 1/2 runs"), std::string::npos);
  EXPECT_EQ(text.find("\n"), text.rfind("\n"));  // exactly one newline
  EXPECT_EQ(text.back(), '\n');
}

TEST(Progress, EtaIsUnknownWithoutProgress) {
  TempStream out;
  MetricsRegistry metrics;
  ProgressReporter::Options options;
  options.out = out.get();
  options.total_runs = 10;
  ProgressReporter hud(metrics, options);
  const ProgressReporter::Snapshot snap = hud.snapshot();
  EXPECT_DOUBLE_EQ(snap.eta_s, 0.0);
  EXPECT_NE(hud.render_line().find("ETA --"), std::string::npos);
}

}  // namespace
}  // namespace propane::obs
