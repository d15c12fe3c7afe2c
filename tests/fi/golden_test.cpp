#include "fi/golden.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace propane::fi {
namespace {

TraceSet make_trace(std::vector<std::vector<std::uint16_t>> rows,
                    std::vector<std::string> names = {"a", "b"}) {
  TraceSet trace(std::move(names));
  for (auto& row : rows) trace.append(std::move(row));
  return trace;
}

TEST(GoldenComparison, IdenticalTracesShowNoDivergence) {
  const TraceSet golden = make_trace({{1, 2}, {3, 4}});
  const TraceSet injected = make_trace({{1, 2}, {3, 4}});
  const DivergenceReport report = compare_to_golden(golden, injected);
  EXPECT_FALSE(report.any_divergence());
  EXPECT_EQ(report.divergence_count(), 0u);
}

TEST(GoldenComparison, RecordsFirstDifferencePerSignal) {
  const TraceSet golden = make_trace({{1, 2}, {3, 4}, {5, 6}});
  const TraceSet injected = make_trace({{1, 2}, {9, 4}, {5, 7}});
  const DivergenceReport report = compare_to_golden(golden, injected);
  ASSERT_EQ(report.per_signal.size(), 2u);
  EXPECT_TRUE(report.per_signal[0].diverged);
  EXPECT_EQ(report.per_signal[0].first_ms, 1u);
  EXPECT_EQ(report.per_signal[0].golden_value, 3u);
  EXPECT_EQ(report.per_signal[0].observed_value, 9u);
  EXPECT_TRUE(report.per_signal[1].diverged);
  EXPECT_EQ(report.per_signal[1].first_ms, 2u);
  EXPECT_EQ(report.divergence_count(), 2u);
}

TEST(GoldenComparison, ComparisonStopsAtFirstDifference) {
  // Values after the first difference are irrelevant -- only the first
  // difference is reported even if traces re-converge (Section 7.3).
  const TraceSet golden = make_trace({{1, 0}, {2, 0}, {3, 0}});
  const TraceSet injected = make_trace({{9, 0}, {2, 0}, {8, 0}});
  const DivergenceReport report = compare_to_golden(golden, injected);
  EXPECT_EQ(report.per_signal[0].first_ms, 0u);
  EXPECT_FALSE(report.per_signal[1].diverged);
}

TEST(GoldenComparison, LengthMismatchCountsAsDivergence) {
  const TraceSet golden = make_trace({{1, 2}, {3, 4}, {5, 6}});
  const TraceSet shorter = make_trace({{1, 2}, {3, 4}});
  const DivergenceReport report = compare_to_golden(golden, shorter);
  EXPECT_TRUE(report.per_signal[0].diverged);
  EXPECT_EQ(report.per_signal[0].first_ms, 2u);
  EXPECT_TRUE(report.per_signal[1].diverged);
}

TEST(GoldenComparison, ValueDifferenceBeforeLengthMismatch) {
  const TraceSet golden = make_trace({{1, 2}, {3, 4}, {5, 6}});
  const TraceSet injected = make_trace({{1, 9}, {3, 4}});
  const DivergenceReport report = compare_to_golden(golden, injected);
  EXPECT_EQ(report.per_signal[1].first_ms, 0u);  // value diff wins
  EXPECT_EQ(report.per_signal[0].first_ms, 2u);  // length diff
}

TEST(GoldenComparison, DivergenceOnFinalSampleOnly) {
  // The chunked scan must not treat the last row specially.
  const TraceSet golden = make_trace({{1, 2}, {3, 4}, {5, 6}});
  const TraceSet injected = make_trace({{1, 2}, {3, 4}, {5, 7}});
  const DivergenceReport report = compare_to_golden(golden, injected);
  EXPECT_FALSE(report.per_signal[0].diverged);
  ASSERT_TRUE(report.per_signal[1].diverged);
  EXPECT_EQ(report.per_signal[1].first_ms, 2u);
  EXPECT_EQ(report.per_signal[1].golden_value, 6u);
  EXPECT_EQ(report.per_signal[1].observed_value, 7u);
}

TEST(GoldenComparison, LongerInjectedTraceCountsAsDivergence) {
  // Injected traces can also outlive the golden (e.g. a later stop): the
  // extra samples mark every still-converged signal at the common length.
  const TraceSet golden = make_trace({{1, 2}, {3, 4}});
  const TraceSet longer = make_trace({{1, 2}, {3, 4}, {5, 6}});
  const DivergenceReport report = compare_to_golden(golden, longer);
  EXPECT_TRUE(report.per_signal[0].diverged);
  EXPECT_EQ(report.per_signal[0].first_ms, 2u);
  EXPECT_EQ(report.per_signal[0].golden_value, 0u);
  EXPECT_EQ(report.per_signal[0].observed_value, 0u);
  EXPECT_TRUE(report.per_signal[1].diverged);
}

TEST(GoldenComparison, EmptyTracesShowNoDivergence) {
  const TraceSet golden = make_trace({});
  const TraceSet injected = make_trace({});
  const DivergenceReport report = compare_to_golden(golden, injected);
  ASSERT_EQ(report.per_signal.size(), 2u);
  EXPECT_FALSE(report.any_divergence());
}

TEST(GoldenComparison, EmptyGoldenVersusNonEmptyInjected) {
  const TraceSet golden = make_trace({});
  const TraceSet injected = make_trace({{1, 2}});
  const DivergenceReport report = compare_to_golden(golden, injected);
  EXPECT_TRUE(report.per_signal[0].diverged);
  EXPECT_EQ(report.per_signal[0].first_ms, 0u);
  EXPECT_TRUE(report.per_signal[1].diverged);
}

TEST(GoldenComparison, FirstDifferenceAcrossChunkBoundaries) {
  // The contiguous scan compares in fixed-size chunks; place the first
  // (and only) difference deep into the flat buffer so it straddles the
  // internal chunking, and check the resolved (ms, signal) is exact.
  constexpr std::size_t kSamples = 10'000;  // 20'000 values > one chunk
  TraceSet golden({"a", "b"});
  TraceSet injected({"a", "b"});
  golden.reserve(kSamples);
  injected.reserve(kSamples);
  for (std::size_t ms = 0; ms < kSamples; ++ms) {
    const auto v = static_cast<std::uint16_t>(ms & 0xFFFF);
    golden.append({v, static_cast<std::uint16_t>(v ^ 0x5555)});
    const bool corrupt = ms >= 9'000;
    injected.append({v, static_cast<std::uint16_t>((v ^ 0x5555) ^
                                                   (corrupt ? 0x8000 : 0))});
  }
  const DivergenceReport report = compare_to_golden(golden, injected);
  EXPECT_FALSE(report.per_signal[0].diverged);
  ASSERT_TRUE(report.per_signal[1].diverged);
  EXPECT_EQ(report.per_signal[1].first_ms, 9'000u);
  EXPECT_EQ(report.per_signal[1].golden_value, golden.value(9'000, 1));
  EXPECT_EQ(report.per_signal[1].observed_value, injected.value(9'000, 1));
}

TEST(GoldenComparison, SignalCountMismatchViolatesContract) {
  const TraceSet golden = make_trace({{1, 2}});
  TraceSet other(std::vector<std::string>{"a"});
  other.append({1});
  EXPECT_THROW(compare_to_golden(golden, other), ContractViolation);
}

TEST(DivergenceReport, NotesOutOfSignalOrderYieldAscendingEntries) {
  DivergenceReport report(6);
  report.note(4, 20, 1, 2);
  report.note(1, 30, 3, 4);
  report.note(5, 10, 5, 6);
  report.note(0, 40, 7, 8);
  ASSERT_EQ(report.divergence_count(), 4u);
  const std::vector<DivergenceEntry> entries(report.diverged().begin(),
                                             report.diverged().end());
  EXPECT_EQ(entries, (std::vector<DivergenceEntry>{{40, 0, 7, 8},
                                                   {30, 1, 3, 4},
                                                   {20, 4, 1, 2},
                                                   {10, 5, 5, 6}}));
  EXPECT_EQ(report.per_signal[4].first_ms, 20u);
  EXPECT_EQ(report.per_signal[4].observed_value, 2u);
}

TEST(DivergenceReport, CleanSignalReadsAsAllZeroDivergence) {
  DivergenceReport report(3);
  report.note(2, 7, 9, 10);
  EXPECT_EQ(report.per_signal.size(), 3u);
  const Divergence clean = report.per_signal[1];
  EXPECT_FALSE(clean.diverged);
  EXPECT_EQ(clean.first_ms, 0u);
  EXPECT_EQ(clean.golden_value, 0u);
  EXPECT_EQ(clean.observed_value, 0u);
  EXPECT_TRUE(report.per_signal[2].diverged);
  EXPECT_THROW(static_cast<void>(report.per_signal[3]), ContractViolation);
}

TEST(DivergenceReport, NotingASignalTwiceViolatesContract) {
  DivergenceReport report(3);
  report.note(1, 5, 0, 1);
  EXPECT_THROW(report.note(1, 6, 0, 2), ContractViolation);
  EXPECT_THROW(report.note(3, 6, 0, 2), ContractViolation);  // off the bus
  EXPECT_EQ(report.divergence_count(), 1u);
  EXPECT_EQ(report.per_signal[1].first_ms, 5u);
}

}  // namespace
}  // namespace propane::fi
