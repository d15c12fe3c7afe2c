// Binary record codec for the campaign journal (store/journal.hpp).
//
// Every journal payload is a flat little-endian byte string assembled with
// ByteWriter and re-read with ByteReader; framing (length prefix + CRC32)
// is the journal layer's job. Keeping the codec separate lets tests and
// the merge tool reason about record contents without touching files.
//
// Payload layouts (all integers little-endian; the shard header's version
// selects the injection-record layout -- the manifest never changed):
//   Manifest:          u64 plan_hash | u64 seed | u32 test_case_count |
//                      u32 injection_count
//   InjectionResult v3:u32 injection_index | u32 test_case | u32 target |
//                      u64 when_us | u64 fingerprint | u8 flags |
//                      u32 signal_count | u32 diverged_count |
//                      diverged_count x (u32 signal | u64 first_ms |
//                      u16 golden | u16 observed)
//   InjectionResult v2: as v3 without the fingerprint/flags words
//   InjectionResult v1: as v2 with `str model_name` after when_us
// flags bit 0 marks a record replayed from a delta-campaign baseline
// cache rather than executed by the writing session; the other bits are
// reserved (written as 0, ignored on read). v1/v2 records decode with
// fingerprint 0 ("unknown"), which the delta engine treats as a cache
// miss. The error-model name is NOT stored per record since v2:
// injection_index resolves it through the campaign plan (the manifest's
// plan hash covers the model names, so a journal can never silently pair
// with the wrong plan). Strings are u32 length + raw bytes. Divergence
// reports are stored sparsely: only diverged signals get an entry, which
// keeps a typical record well under 100 bytes even on wide buses. That is
// also fi::DivergenceReport's in-memory form (bus width + diverged
// entries), so encoding copies the entries and decoding appends them; the
// decoder requires a non-zero bus width and the entries in strictly
// ascending signal order, as every encoder writes them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "fi/campaign.hpp"

namespace propane::store {

// The byte codec and its hashes live in common/bytes.hpp (the delta-
// campaign fingerprints in src/fi use them too); re-exported here because
// they are part of this codec's vocabulary.
using propane::ByteReader;
using propane::ByteWriter;
using propane::crc32;
using propane::fnv1a64;

/// Journal record kinds. The manifest is always the first record of a
/// shard; everything after it is injection results.
enum class RecordType : std::uint8_t {
  kManifest = 1,
  kInjectionResult = 2,
};

/// Identifies the campaign a shard belongs to. Shards of the same campaign
/// (resume sessions, process splits) carry identical manifests; resume and
/// merge refuse to mix shards whose manifests disagree.
struct Manifest {
  std::uint64_t plan_hash = 0;  // fingerprint of the injection plan
  std::uint64_t seed = 0;       // CampaignConfig::seed (drives run seeds)
  std::uint32_t test_case_count = 0;
  std::uint32_t injection_count = 0;

  /// Total runs the plan calls for (excluding golden runs).
  std::size_t total_runs() const {
    return static_cast<std::size_t>(test_case_count) * injection_count;
  }
  /// Flat run index used for journal bookkeeping; matches the campaign
  /// runner's injection-major enumeration.
  std::size_t flat_index(std::uint32_t injection_index,
                         std::uint32_t test_case) const {
    return static_cast<std::size_t>(injection_index) * test_case_count +
           test_case;
  }

  bool operator==(const Manifest&) const = default;
};

/// Fingerprint of the injection plan: folds seed, test-case count and every
/// injection's (target, when, phase, model name) into one hash. Two configs
/// with the same fingerprint derive identical per-run seeds, which is what
/// makes resumed runs bit-identical to uninterrupted ones.
std::uint64_t plan_hash(const fi::CampaignConfig& config);

/// Builds the manifest describing `config`.
Manifest manifest_for(const fi::CampaignConfig& config);

/// Replayed-from-cache marker in the v3 record flags byte.
inline constexpr std::uint8_t kRecordFlagReplayed = 0x01;

/// The fixed words of an injection record's payload: its identity under
/// the plan and its metadata. A replay re-stamps these for the current plan
/// and encodes them next to the cached report, so the record itself is
/// never copied.
struct RecordStamp {
  std::uint32_t injection_index = 0;
  std::uint32_t test_case = 0;
  fi::BusSignalId target = 0;
  sim::SimTime when = 0;
  std::uint64_t fingerprint = 0;
  bool replayed = false;
};

RecordStamp stamp_of(const fi::InjectionRecord& record);

void encode_manifest(ByteWriter& out, const Manifest& manifest);
std::vector<std::uint8_t> encode_manifest(const Manifest& manifest);
Manifest decode_manifest(const std::uint8_t* data, std::size_t size);

/// Encoding always writes the current (v3) layout; decoding accepts any
/// supported shard version (store/journal.hpp) so old journals stay
/// readable -- their records simply carry no fingerprint.
void encode_injection_record(ByteWriter& out, const RecordStamp& stamp,
                             const fi::DivergenceReport& report);
std::vector<std::uint8_t> encode_injection_record(
    const fi::InjectionRecord& record);
fi::InjectionRecord decode_injection_record(const std::uint8_t* data,
                                            std::size_t size,
                                            std::uint32_t version = 3);

}  // namespace propane::store
