#include "fi/signal_bus.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace propane::fi {
namespace {

TEST(SignalBus, RegisterReadWrite) {
  SignalBus bus;
  const BusSignalId a = bus.add_signal("a", 7);
  const BusSignalId b = bus.add_signal("b");
  EXPECT_EQ(bus.signal_count(), 2u);
  EXPECT_EQ(bus.read(a), 7u);
  EXPECT_EQ(bus.read(b), 0u);
  bus.write(a, 42);
  EXPECT_EQ(bus.read(a), 42u);
}

TEST(SignalBus, NamesAndLookup) {
  SignalBus bus;
  const BusSignalId a = bus.add_signal("pulscnt");
  EXPECT_EQ(bus.name(a), "pulscnt");
  EXPECT_EQ(bus.find("pulscnt"), a);
  EXPECT_FALSE(bus.find("nope").has_value());
}

TEST(SignalBus, RejectsDuplicateOrEmptyNames) {
  SignalBus bus;
  bus.add_signal("x");
  EXPECT_THROW(bus.add_signal("x"), ContractViolation);
  EXPECT_THROW(bus.add_signal(""), ContractViolation);
}

TEST(SignalBus, PokeBypassesNothingButDocumentsIntent) {
  SignalBus bus;
  const BusSignalId a = bus.add_signal("a", 1);
  bus.poke(a, 0xFFFF);
  EXPECT_EQ(bus.read(a), 0xFFFFu);
}

TEST(SignalBus, SnapshotMatchesIdOrder) {
  SignalBus bus;
  bus.add_signal("a", 1);
  bus.add_signal("b", 2);
  bus.add_signal("c", 3);
  const auto snap = bus.snapshot();
  EXPECT_EQ(snap, (std::vector<std::uint16_t>{1, 2, 3}));
}

TEST(SignalBus, FindScalesWithoutNameCopies) {
  // string_view lookups work on a bus wider than any real one and resolve
  // to the right id for every signal, first and last included.
  SignalBus bus;
  std::vector<BusSignalId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(bus.add_signal("sig" + std::to_string(i)));
  }
  for (int i = 0; i < 200; ++i) {
    const std::string name = "sig" + std::to_string(i);
    EXPECT_EQ(bus.find(std::string_view(name)), ids[static_cast<size_t>(i)]);
  }
  EXPECT_FALSE(bus.find("sig200").has_value());
}

TEST(SignalBus, SnapshotIntoFillsCallerBuffer) {
  SignalBus bus;
  bus.add_signal("a", 1);
  bus.add_signal("b", 2);
  std::vector<std::uint16_t> out(2, 0xFFFF);
  bus.snapshot_into(out);
  EXPECT_EQ(out, (std::vector<std::uint16_t>{1, 2}));
  std::vector<std::uint16_t> wrong(3);
  EXPECT_THROW(bus.snapshot_into(wrong), ContractViolation);
  std::vector<std::uint16_t> undersized(1);
  EXPECT_THROW(bus.snapshot_into(undersized), ContractViolation);
}

TEST(SignalBus, ResetRestoresInitialValues) {
  SignalBus bus;
  const BusSignalId a = bus.add_signal("a", 11);
  const BusSignalId b = bus.add_signal("b", 22);
  bus.write(a, 1);
  bus.write(b, 2);
  bus.reset();
  EXPECT_EQ(bus.read(a), 11u);
  EXPECT_EQ(bus.read(b), 22u);
}

TEST(SignalBus, OutOfRangeAccessViolatesContracts) {
  SignalBus bus;
  bus.add_signal("a");
  EXPECT_THROW(bus.read(5), ContractViolation);
  EXPECT_THROW(bus.write(5, 0), ContractViolation);
  // poke carries its own bounds contract (not just via write): an
  // injection spec targeting a signal absent from this bus fails loudly
  // at the poke site.
  EXPECT_THROW(bus.poke(5, 0), ContractViolation);
  EXPECT_THROW(bus.name(5), ContractViolation);
}

}  // namespace
}  // namespace propane::fi
