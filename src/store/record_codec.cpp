#include "store/record_codec.hpp"

#include "common/contracts.hpp"

namespace propane::store {

namespace {

/// Bytes of one diverged-signal entry: u32 signal, u64 first_ms and two
/// u16 values.
constexpr std::size_t kEntryBytes = 16;

}  // namespace

std::uint64_t plan_hash(const fi::CampaignConfig& config) {
  // Hash a canonical encoding of the plan rather than raw structs so
  // padding and container layout cannot leak into the fingerprint.
  ByteWriter writer;
  writer.u64(config.seed);
  writer.u32(config.test_case_count);
  writer.u32(static_cast<std::uint32_t>(config.injections.size()));
  for (const fi::InjectionSpec& spec : config.injections) {
    writer.u32(spec.target);
    writer.u64(spec.when);
    writer.u8(static_cast<std::uint8_t>(spec.phase));
    writer.str(spec.model.name);
  }
  return fnv1a64(writer.bytes().data(), writer.bytes().size());
}

Manifest manifest_for(const fi::CampaignConfig& config) {
  Manifest manifest;
  manifest.plan_hash = plan_hash(config);
  manifest.seed = config.seed;
  manifest.test_case_count = config.test_case_count;
  manifest.injection_count =
      static_cast<std::uint32_t>(config.injections.size());
  return manifest;
}

RecordStamp stamp_of(const fi::InjectionRecord& record) {
  return {record.injection_index, record.test_case, record.target,
          record.when,            record.fingerprint, record.replayed};
}

void encode_manifest(ByteWriter& out, const Manifest& manifest) {
  out.u64(manifest.plan_hash);
  out.u64(manifest.seed);
  out.u32(manifest.test_case_count);
  out.u32(manifest.injection_count);
}

std::vector<std::uint8_t> encode_manifest(const Manifest& manifest) {
  ByteWriter writer;
  encode_manifest(writer, manifest);
  return writer.take();
}

Manifest decode_manifest(const std::uint8_t* data, std::size_t size) {
  ByteReader reader(data, size);
  Manifest manifest;
  manifest.plan_hash = reader.u64();
  manifest.seed = reader.u64();
  manifest.test_case_count = reader.u32();
  manifest.injection_count = reader.u32();
  PROPANE_CHECK_MSG(reader.exhausted(),
                    "trailing bytes after manifest payload");
  return manifest;
}

void encode_injection_record(ByteWriter& out, const RecordStamp& stamp,
                             const fi::DivergenceReport& report) {
  out.u32(stamp.injection_index);
  out.u32(stamp.test_case);
  out.u32(stamp.target);
  out.u64(stamp.when);
  out.u64(stamp.fingerprint);
  out.u8(stamp.replayed ? kRecordFlagReplayed : 0);
  out.u32(static_cast<std::uint32_t>(report.per_signal.size()));
  out.u32(static_cast<std::uint32_t>(report.divergence_count()));
  for (const fi::DivergenceEntry& d : report.diverged()) {
    out.u32(d.signal);
    out.u64(d.first_ms);
    out.u16(d.golden_value);
    out.u16(d.observed_value);
  }
}

std::vector<std::uint8_t> encode_injection_record(
    const fi::InjectionRecord& record) {
  ByteWriter writer;
  encode_injection_record(writer, stamp_of(record), record.report);
  return writer.take();
}

fi::InjectionRecord decode_injection_record(const std::uint8_t* data,
                                            std::size_t size,
                                            std::uint32_t version) {
  ByteReader reader(data, size);
  fi::InjectionRecord record;
  record.injection_index = reader.u32();
  record.test_case = reader.u32();
  record.target = reader.u32();
  record.when = reader.u64();
  if (version == 1) {
    // v1 embedded the error-model name per record; since v2 the name is
    // resolved through the plan, so the stored copy is just skipped.
    (void)reader.str();
  }
  if (version >= 3) {
    record.fingerprint = reader.u64();
    record.replayed = (reader.u8() & kRecordFlagReplayed) != 0;
  }
  const std::uint32_t signal_count = reader.u32();
  // Every executed run traces at least one signal; a width-0 report would
  // meet no estimator binding.
  PROPANE_CHECK_MSG(signal_count > 0, "journal record covers no signals");
  const std::uint32_t diverged = reader.u32();
  PROPANE_CHECK_MSG(diverged <= signal_count,
                    "journal record claims more divergences than signals");
  PROPANE_CHECK_MSG(reader.remaining() >= std::size_t{diverged} * kEntryBytes,
                    "journal record holds fewer divergences than it claims");
  record.report = fi::DivergenceReport(signal_count);
  record.report.reserve(diverged);
  for (std::uint32_t i = 0; i < diverged; ++i) {
    const std::uint32_t signal = reader.u32();
    PROPANE_CHECK_MSG(signal < signal_count,
                      "journal record divergence signal out of range");
    PROPANE_CHECK_MSG(i == 0 || signal > record.report.diverged().back().signal,
                      "journal record divergence signals not ascending");
    const std::uint64_t first_ms = reader.u64();
    const std::uint16_t golden_value = reader.u16();
    record.report.note(signal, first_ms, golden_value, reader.u16());
  }
  PROPANE_CHECK_MSG(reader.exhausted(),
                    "trailing bytes after injection record payload");
  return record;
}

}  // namespace propane::store
