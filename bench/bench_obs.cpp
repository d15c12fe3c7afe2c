// Microbenchmarks for the telemetry layer (src/obs): the per-event cost of
// counters, histograms, spans and NDJSON emission, in both the enabled and
// the disabled (null-handle fast path) state. The disabled numbers are the
// ones that matter for the fault-injection hot path: instrumentation sites
// pay one pointer test when telemetry is off.
//
// Beyond the microbenchmarks, `--assert-batch-overhead[=pct]` runs the
// default-scale lockstep batched campaign on one thread with telemetry off
// and on (alternating, min-of-k) and fails when the enabled-telemetry wall
// time exceeds the disabled one by more than pct (default 5%) -- the CI guard
// for the batch-kernel profiling counters, whose whole design is that they
// derive from counts the batch already kept and never touch the tick loop.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "arrestment/batch_runner.hpp"
#include "arrestment/testcase.hpp"
#include "exp/paper_experiment.hpp"
#include "fi/campaign.hpp"
#include "obs/metrics.hpp"
#include "obs/ndjson.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace propane;

/// An ostream that swallows everything: measures serialisation without
/// filesystem noise.
class NullBuffer : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

void BM_CounterAdd_Enabled(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = &registry.counter("bench.hits");
  for (auto _ : state) {
    if (counter != nullptr) counter->add(1);
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_CounterAdd_Enabled);

void BM_CounterAdd_Disabled(benchmark::State& state) {
  // The null-handle fast path every instrumentation site takes when
  // telemetry is off: one pointer test, nothing else.
  obs::Counter* counter = nullptr;
  benchmark::DoNotOptimize(counter);
  std::uint64_t fallback = 0;
  for (auto _ : state) {
    if (counter != nullptr) {
      counter->add(1);
    } else {
      ++fallback;
    }
  }
  benchmark::DoNotOptimize(fallback);
}
BENCHMARK(BM_CounterAdd_Disabled);

void BM_CounterAdd_Contended(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::Counter* counter = &registry.counter("bench.contended");
  for (auto _ : state) {
    counter->add(1);
  }
}
BENCHMARK(BM_CounterAdd_Contended)->Threads(4);

void BM_GaugeSet(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Gauge* gauge = &registry.gauge("bench.depth");
  double v = 0;
  for (auto _ : state) {
    gauge->set(v);
    v += 1.0;
  }
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram = &registry.histogram(
      "bench.lat", {100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8});
  double v = 0;
  for (auto _ : state) {
    histogram->observe(v);
    v += 997.0;
    if (v > 1e8) v = 0;
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_Span_Disabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::Span span(nullptr, "bench.scope");
    benchmark::DoNotOptimize(span.enabled());
  }
}
BENCHMARK(BM_Span_Disabled);

void BM_Span_Streamed(benchmark::State& state) {
  NullBuffer null_buffer;
  std::ostream null_stream(&null_buffer);
  obs::NdjsonSink sink(null_stream);
  obs::Telemetry telemetry;
  telemetry.events = &sink;
  for (auto _ : state) {
    obs::Span span(&telemetry, "bench.scope");
    benchmark::DoNotOptimize(span.id());
  }
}
BENCHMARK(BM_Span_Streamed);

void BM_EventEmit(benchmark::State& state) {
  NullBuffer null_buffer;
  std::ostream null_stream(&null_buffer);
  obs::NdjsonSink sink(null_stream);
  std::uint64_t n = 0;
  for (auto _ : state) {
    sink.emit(obs::make_event(
        "bench.event", {{"flat", obs::Value(n)},
                        {"target", obs::Value("signal_name")},
                        {"dur_us", obs::Value(12.5)}}));
    ++n;
  }
}
BENCHMARK(BM_EventEmit);

void BM_ParseFlatJsonObject(benchmark::State& state) {
  const std::string line = obs::event_to_json(obs::make_event(
      "campaign.batch.done", {{"fire_ms", obs::Value(1234)},
                              {"lanes", obs::Value(63)},
                              {"dur_us", obs::Value(2512)}}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::parse_flat_json_object(line));
  }
}
BENCHMARK(BM_ParseFlatJsonObject);

void BM_MetricsSnapshotToJson(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 10; ++i) {
    registry.counter("bench.counter." + std::to_string(i)).add(42);
  }
  registry.histogram("bench.lat", {100.0, 1e3, 1e4}).observe(55.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        obs::metrics_snapshot_to_json(registry.snapshot()));
  }
}
BENCHMARK(BM_MetricsSnapshotToJson);

// --- batch-section telemetry overhead ------------------------------------

/// One default-scale lockstep batched campaign on one thread; telemetry
/// optional. Returns wall seconds. The guard must resolve a 5% overhead:
/// the smoke campaign (about 2 ms) and any campaign spread over a thread
/// pool (whichever worker finishes last sets the wall time) scatter their
/// min-of-k overheads over more than that, while one thread through the
/// default campaign takes about 30 ms and scatters over about 2.5 points
/// at 21 rounds. The telemetry bundle is the CLI's real configuration:
/// metrics registry and an NDJSON sink (into a null stream, so the
/// measurement is instrumentation cost, not disk).
double run_batch_campaign(bool telemetry_on) {
  exp::ExperimentScale scale = exp::default_scale();
  scale.threads = 1;
  const fi::CampaignConfig config = exp::make_campaign_config(scale);
  const std::vector<arr::TestCase> cases =
      scale.custom_cases.empty()
          ? arr::grid_test_cases(scale.mass_count, scale.velocity_count)
          : scale.custom_cases;

  obs::MetricsRegistry metrics;
  NullBuffer null_buffer;
  std::ostream null_stream(&null_buffer);
  obs::NdjsonSink sink(null_stream);
  obs::Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.events = &sink;

  const auto start = std::chrono::steady_clock::now();
  const fi::CampaignResult result = fi::run_campaign(
      arr::batched_campaign_runner(cases, config, scale.duration,
                                   telemetry_on ? &telemetry : nullptr),
      config);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  benchmark::DoNotOptimize(result.run_count());
  return wall_s;
}

void BM_BatchCampaign_TelemetryOff(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batch_campaign(false));
  }
}
BENCHMARK(BM_BatchCampaign_TelemetryOff)->Unit(benchmark::kMillisecond);

void BM_BatchCampaign_TelemetryOn(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batch_campaign(true));
  }
}
BENCHMARK(BM_BatchCampaign_TelemetryOn)->Unit(benchmark::kMillisecond);

/// The CI assertion. Min-of-k with alternating order so machine noise
/// (turbo ramp, page cache) hits both configurations symmetrically.
int assert_batch_overhead(double max_overhead_pct) {
  constexpr int kRounds = 21;
  double off_s = 1e100;
  double on_s = 1e100;
  run_batch_campaign(false);  // warm-up: page in code and checkpoints
  for (int round = 0; round < kRounds; ++round) {
    if (round % 2 == 0) {
      off_s = std::min(off_s, run_batch_campaign(false));
      on_s = std::min(on_s, run_batch_campaign(true));
    } else {
      on_s = std::min(on_s, run_batch_campaign(true));
      off_s = std::min(off_s, run_batch_campaign(false));
    }
  }
  const double overhead_pct = (on_s / off_s - 1.0) * 100.0;
  std::printf(
      "batch section: telemetry off %.1f ms, on %.1f ms, overhead %+.2f%% "
      "(limit %.1f%%)\n",
      off_s * 1e3, on_s * 1e3, overhead_pct, max_overhead_pct);
  if (overhead_pct > max_overhead_pct) {
    std::fprintf(stderr,
                 "FAIL: enabled-telemetry batch overhead %.2f%% exceeds "
                 "%.1f%%\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  std::puts("batch telemetry overhead ok");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    constexpr const char kFlag[] = "--assert-batch-overhead";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      double limit = 5.0;
      if (argv[i][sizeof(kFlag) - 1] == '=') {
        limit = std::stod(argv[i] + sizeof(kFlag));
      }
      return assert_batch_overhead(limit);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
