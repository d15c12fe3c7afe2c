#include "store/record_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/contracts.hpp"

namespace propane::store {
namespace {

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits, sizeof(digits)), 0xCBF43926u);
  EXPECT_EQ(crc32(digits, 0), 0u);
}

/// Bit-at-a-time CRC-32 over the reflected polynomial 0xEDB88320: the
/// definition, sharing no table with the production code.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

// crc32 consumes eight bytes per step; every length around that step, at
// every alignment, must give the byte-wise value, so every CRC already on
// disk stays valid.
TEST(Crc32, SlicingByEightMatchesAByteWiseReference) {
  std::vector<std::uint8_t> buffer(4096 + 8);
  std::uint32_t state = 0x12345678u;
  for (std::uint8_t& byte : buffer) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<std::uint8_t>(state >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::uint8_t* data = buffer.data() + offset;
      EXPECT_EQ(crc32(data, length), bitwise_crc32(data, length))
          << "offset " << offset << ", length " << length;
    }
  }
  EXPECT_EQ(crc32(buffer.data(), 4096), bitwise_crc32(buffer.data(), 4096));
}

TEST(Crc32, SensitiveToSingleBitFlips) {
  std::uint8_t data[] = {0x00, 0x01, 0x02, 0x03};
  const std::uint32_t clean = crc32(data, sizeof(data));
  data[2] ^= 0x10;
  EXPECT_NE(crc32(data, sizeof(data)), clean);
}

TEST(ByteCodec, RoundTripsEveryWidth) {
  ByteWriter writer;
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEFu);
  writer.u64(0x0123456789ABCDEFull);
  writer.str("model \"x\", flip");
  const std::vector<std::uint8_t> bytes = writer.bytes();

  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.str(), "model \"x\", flip");
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteCodec, IntegersAreLittleEndian) {
  ByteWriter writer;
  writer.u32(0x11223344u);
  const auto& bytes = writer.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x44);
  EXPECT_EQ(bytes[3], 0x11);
}

TEST(ByteCodec, OverrunViolatesContract) {
  const std::uint8_t two[] = {1, 2};
  ByteReader reader(two, sizeof(two));
  reader.u16();
  EXPECT_THROW(reader.u8(), ContractViolation);
  ByteReader str_reader(two, sizeof(two));
  // Length prefix alone needs 4 bytes.
  EXPECT_THROW(str_reader.str(), ContractViolation);
}

TEST(ManifestCodec, RoundTrips) {
  Manifest manifest;
  manifest.plan_hash = 0xFEEDFACECAFEBEEFull;
  manifest.seed = 42;
  manifest.test_case_count = 25;
  manifest.injection_count = 2080;
  const auto bytes = encode_manifest(manifest);
  EXPECT_EQ(decode_manifest(bytes.data(), bytes.size()), manifest);
  EXPECT_EQ(manifest.total_runs(), 25u * 2080u);
  EXPECT_EQ(manifest.flat_index(1, 3), 28u);
}

fi::InjectionRecord sample_record() {
  fi::InjectionRecord record;
  record.injection_index = 7;
  record.test_case = 3;
  record.target = 12;
  record.when = 2500 * sim::kMillisecond;
  record.report = fi::DivergenceReport(30);
  record.report.note(4, 2501, 0x00FF, 0x80FF);
  record.report.note(29, 3000, 7, 8);
  return record;
}

TEST(InjectionRecordCodec, RoundTripsSparseDivergences) {
  const fi::InjectionRecord record = sample_record();
  const auto bytes = encode_injection_record(record);
  const fi::InjectionRecord back =
      decode_injection_record(bytes.data(), bytes.size());
  EXPECT_EQ(back.injection_index, record.injection_index);
  EXPECT_EQ(back.test_case, record.test_case);
  EXPECT_EQ(back.target, record.target);
  EXPECT_EQ(back.when, record.when);
  ASSERT_EQ(back.report.per_signal.size(), record.report.per_signal.size());
  for (std::size_t s = 0; s < back.report.per_signal.size(); ++s) {
    EXPECT_EQ(back.report.per_signal[s].diverged,
              record.report.per_signal[s].diverged);
    EXPECT_EQ(back.report.per_signal[s].first_ms,
              record.report.per_signal[s].first_ms);
    EXPECT_EQ(back.report.per_signal[s].golden_value,
              record.report.per_signal[s].golden_value);
    EXPECT_EQ(back.report.per_signal[s].observed_value,
              record.report.per_signal[s].observed_value);
  }
}

TEST(InjectionRecordCodec, SparseEncodingStaysSmallOnWideBuses) {
  fi::InjectionRecord record;
  record.report = fi::DivergenceReport(10'000);  // wide bus, nothing diverged
  EXPECT_LT(encode_injection_record(record).size(), 100u);
}

TEST(InjectionRecordCodec, RejectsTruncatedAndTrailingBytes) {
  const auto bytes = encode_injection_record(sample_record());
  EXPECT_THROW(decode_injection_record(bytes.data(), bytes.size() - 1),
               ContractViolation);
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(decode_injection_record(padded.data(), padded.size()),
               ContractViolation);
}

TEST(InjectionRecordCodec, RejectsImpossibleDivergenceCounts) {
  // signal_count = 1 but diverged_count = 2.
  ByteWriter writer;
  writer.u32(0);
  writer.u32(0);
  writer.u32(0);
  writer.u64(0);
  writer.str("m");
  writer.u32(1);  // signal_count
  writer.u32(2);  // diverged_count > signal_count
  const auto bytes = writer.take();
  EXPECT_THROW(decode_injection_record(bytes.data(), bytes.size()),
               ContractViolation);
}

/// A v3 record payload naming the given diverged signals, in that order,
/// on a 14-signal bus.
std::vector<std::uint8_t> record_listing(
    const std::vector<std::uint32_t>& signals) {
  ByteWriter writer;
  writer.u32(0);   // injection_index
  writer.u32(0);   // test_case
  writer.u32(0);   // target
  writer.u64(0);   // when_us
  writer.u64(1);   // fingerprint
  writer.u8(0);    // flags
  writer.u32(14);  // signal_count
  writer.u32(static_cast<std::uint32_t>(signals.size()));
  for (const std::uint32_t signal : signals) {
    writer.u32(signal);
    writer.u64(100);
    writer.u16(1);
    writer.u16(2);
  }
  return writer.take();
}

TEST(InjectionRecordCodec, RejectsADuplicatedDivergenceSignal) {
  const auto ascending = record_listing({3, 9});
  EXPECT_EQ(decode_injection_record(ascending.data(), ascending.size())
                .report.divergence_count(),
            2u);
  const auto bytes = record_listing({3, 3});
  EXPECT_THROW(decode_injection_record(bytes.data(), bytes.size()),
               ContractViolation);
}

TEST(InjectionRecordCodec, RejectsDescendingDivergenceSignals) {
  const auto bytes = record_listing({9, 2});
  EXPECT_THROW(decode_injection_record(bytes.data(), bytes.size()),
               ContractViolation);
}

TEST(InjectionRecordCodec, RejectsAZeroWidthReport) {
  fi::InjectionRecord record;
  record.injection_index = 3;
  const auto bytes = encode_injection_record(record);
  EXPECT_THROW(decode_injection_record(bytes.data(), bytes.size()),
               ContractViolation);
}

// The v3 payload of one fixed record, as encoded before reports took the
// journal's form in memory: the journal format must not move.
TEST(InjectionRecordCodec, V3BytesArePinned) {
  fi::InjectionRecord record;
  record.injection_index = 1234;
  record.test_case = 17;
  record.target = 5;
  record.when = 1500 * sim::kMillisecond;
  record.fingerprint = 0x0123456789ABCDEFull;
  record.replayed = true;
  record.report = fi::DivergenceReport(14);
  record.report.note(11, 1600, 0x0000, 0xFFFF);
  record.report.note(3, 1502, 0x1234, 0x1235);
  const std::string pinned =
      "d2040000110000000500000060e3160000000000efcdab8967452301010e000000"
      "0200000003000000de05000000000000341235120b000000400600000000000000"
      "00ffff";
  const auto bytes = encode_injection_record(record);
  std::string hex;
  for (const std::uint8_t byte : bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xF];
  }
  EXPECT_EQ(hex, pinned);

  const fi::InjectionRecord back =
      decode_injection_record(bytes.data(), bytes.size());
  EXPECT_EQ(back.injection_index, 1234u);
  EXPECT_EQ(back.test_case, 17u);
  EXPECT_EQ(back.target, 5u);
  EXPECT_EQ(back.when, record.when);
  EXPECT_EQ(back.fingerprint, record.fingerprint);
  EXPECT_TRUE(back.replayed);
  EXPECT_EQ(back.report.per_signal.size(), 14u);
  EXPECT_TRUE(std::ranges::equal(back.report.diverged(),
                                 record.report.diverged()));
}

fi::CampaignConfig sample_config() {
  fi::CampaignConfig config;
  config.test_case_count = 3;
  config.seed = 99;
  config.injections = {
      fi::InjectionSpec{0, 2 * sim::kMillisecond, fi::bit_flip(0)},
      fi::InjectionSpec{1, 4 * sim::kMillisecond, fi::bit_flip(8)},
  };
  return config;
}

TEST(PlanHash, StableForIdenticalPlansAcrossThreadCounts) {
  fi::CampaignConfig a = sample_config();
  fi::CampaignConfig b = sample_config();
  b.threads = 8;  // execution detail, not part of the plan
  EXPECT_EQ(plan_hash(a), plan_hash(b));
  EXPECT_EQ(manifest_for(a), manifest_for(b));
}

TEST(PlanHash, ChangesWithAnyPlanIngredient) {
  const std::uint64_t base = plan_hash(sample_config());

  fi::CampaignConfig seed_changed = sample_config();
  seed_changed.seed = 100;
  EXPECT_NE(plan_hash(seed_changed), base);

  fi::CampaignConfig target_changed = sample_config();
  target_changed.injections[0].target = 5;
  EXPECT_NE(plan_hash(target_changed), base);

  fi::CampaignConfig when_changed = sample_config();
  when_changed.injections[1].when = 5 * sim::kMillisecond;
  EXPECT_NE(plan_hash(when_changed), base);

  fi::CampaignConfig model_changed = sample_config();
  model_changed.injections[0].model = fi::bit_flip(1);
  EXPECT_NE(plan_hash(model_changed), base);

  fi::CampaignConfig cases_changed = sample_config();
  cases_changed.test_case_count = 4;
  EXPECT_NE(plan_hash(cases_changed), base);
}

}  // namespace
}  // namespace propane::store
