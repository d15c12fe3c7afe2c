#include "fi/trace.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace propane::fi {
namespace {

TEST(TraceSet, AppendAndAccess) {
  TraceSet trace({"a", "b"});
  EXPECT_EQ(trace.signal_count(), 2u);
  EXPECT_EQ(trace.sample_count(), 0u);
  trace.append({1, 2});
  trace.append({3, 4});
  EXPECT_EQ(trace.sample_count(), 2u);
  EXPECT_EQ(trace.value(0, 0), 1u);
  EXPECT_EQ(trace.value(1, 1), 4u);
  EXPECT_EQ(trace.signal_name(1), "b");
}

TEST(TraceSet, SeriesExtractsColumn) {
  TraceSet trace({"a", "b"});
  trace.append({1, 10});
  trace.append({2, 20});
  trace.append({3, 30});
  EXPECT_EQ(trace.series(1), (std::vector<std::uint16_t>{10, 20, 30}));
}

TEST(TraceSet, RowWidthMismatchViolatesContract) {
  TraceSet trace({"a", "b"});
  EXPECT_THROW(trace.append({1}), ContractViolation);
  EXPECT_THROW(trace.append({1, 2, 3}), ContractViolation);
}

TEST(TraceSet, OutOfRangeAccessViolatesContracts) {
  TraceSet trace({"a"});
  trace.append({1});
  EXPECT_THROW(trace.value(1, 0), ContractViolation);
  EXPECT_THROW(trace.value(0, 1), ContractViolation);
  EXPECT_THROW(trace.series(1), ContractViolation);
  EXPECT_THROW(trace.signal_name(1), ContractViolation);
}

TEST(TraceSet, FlatStorageMatchesPerRowSemantics) {
  // Property check for the flat row-major layout: after any sequence of
  // appends, row(ms), value(ms, id), data() and series(id) must all agree
  // with a per-row reference model.
  constexpr std::size_t kSignals = 7;
  constexpr std::size_t kSamples = 253;  // not a multiple of the width
  std::vector<std::string> names;
  for (std::size_t s = 0; s < kSignals; ++s) {
    names.push_back("sig" + std::to_string(s));
  }
  TraceSet trace(names);
  std::vector<std::vector<std::uint16_t>> reference;
  std::uint32_t state = 12345;
  for (std::size_t ms = 0; ms < kSamples; ++ms) {
    std::vector<std::uint16_t> row(kSignals);
    for (auto& v : row) {
      state = state * 1664525u + 1013904223u;  // LCG, deterministic
      v = static_cast<std::uint16_t>(state >> 16);
    }
    trace.append(row);
    reference.push_back(std::move(row));
  }

  ASSERT_EQ(trace.sample_count(), kSamples);
  ASSERT_EQ(trace.signal_count(), kSignals);
  const std::uint16_t* flat = trace.data();
  for (std::size_t ms = 0; ms < kSamples; ++ms) {
    const std::span<const std::uint16_t> row = trace.row(ms);
    ASSERT_EQ(row.size(), kSignals);
    for (std::size_t s = 0; s < kSignals; ++s) {
      EXPECT_EQ(row[s], reference[ms][s]);
      EXPECT_EQ(trace.value(ms, static_cast<BusSignalId>(s)),
                reference[ms][s]);
      EXPECT_EQ(flat[ms * kSignals + s], reference[ms][s]);
    }
  }
  for (std::size_t s = 0; s < kSignals; ++s) {
    const std::vector<std::uint16_t> column =
        trace.series(static_cast<BusSignalId>(s));
    ASSERT_EQ(column.size(), kSamples);
    for (std::size_t ms = 0; ms < kSamples; ++ms) {
      EXPECT_EQ(column[ms], reference[ms][s]);
    }
  }
}

TEST(TraceSet, ReservePreventsReallocation) {
  TraceSet trace({"a", "b"});
  trace.reserve(100);
  trace.append({0, 0});
  const std::uint16_t* before = trace.data();
  for (std::uint16_t i = 1; i < 100; ++i) trace.append({i, i});
  EXPECT_EQ(trace.data(), before);  // storage never moved
  EXPECT_EQ(trace.sample_count(), 100u);
}

TEST(TraceSet, InternedNameTablesAreShared) {
  const SignalNameTable a = intern_signal_names({"x", "y"});
  const SignalNameTable b = intern_signal_names({"x", "y"});
  const SignalNameTable c = intern_signal_names({"x", "z"});
  EXPECT_EQ(a.get(), b.get());  // identical lists share one table
  EXPECT_NE(a.get(), c.get());
  TraceSet t1(a);
  TraceSet t2(b);
  EXPECT_EQ(t1.names().get(), t2.names().get());
}

TEST(TraceRecorder, SamplesBusStateOverTime) {
  SignalBus bus;
  const BusSignalId a = bus.add_signal("a");
  const BusSignalId b = bus.add_signal("b", 100);
  TraceRecorder recorder(bus);
  recorder.sample();
  bus.write(a, 5);
  recorder.sample();
  bus.write(b, 7);
  recorder.sample();

  const TraceSet& trace = recorder.trace();
  EXPECT_EQ(trace.sample_count(), 3u);
  EXPECT_EQ(trace.series(a), (std::vector<std::uint16_t>{0, 5, 5}));
  EXPECT_EQ(trace.series(b), (std::vector<std::uint16_t>{100, 100, 7}));
  EXPECT_EQ(trace.signal_name(a), "a");
}

TEST(TraceRecorder, TakeMovesTraceOut) {
  SignalBus bus;
  bus.add_signal("a");
  TraceRecorder recorder(bus);
  recorder.sample();
  TraceSet taken = recorder.take();
  EXPECT_EQ(taken.sample_count(), 1u);
}

}  // namespace
}  // namespace propane::fi
