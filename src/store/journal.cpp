#include "store/journal.hpp"

#include <cstring>
#include <vector>

#include "common/contracts.hpp"
#include "obs/telemetry.hpp"

namespace propane::store {

JournalWriter::JournalWriter(const std::filesystem::path& path,
                             const Manifest& manifest,
                             const obs::Telemetry* telemetry)
    : path_(path) {
  appends_ = obs::find_counter(telemetry, "journal.appends");
  append_bytes_ = obs::find_counter(telemetry, "journal.append.bytes");
  flushes_ = obs::find_counter(telemetry, "journal.flushes");
  PROPANE_REQUIRE_MSG(!std::filesystem::exists(path_),
                      "journal shard already exists: " + path_.string());
  out_.open(path_, std::ios::binary | std::ios::trunc);
  PROPANE_REQUIRE_MSG(out_.is_open(),
                      "cannot create journal shard: " + path_.string());
  ByteWriter header;
  for (const char c : kJournalMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kJournalVersion);
  pending_ = header.take();
  frame(RecordType::kManifest,
        [&](ByteWriter& out) { encode_manifest(out, manifest); });
  write_pending();
}

/// The one framing routine: appends `u32 length | u32 crc | payload` to the
/// pending buffer, encoding the payload in place and patching the length
/// and CRC words once it is complete.
template <typename EncodeBody>
void JournalWriter::frame(RecordType type, const EncodeBody& encode_body) {
  ByteWriter out(std::move(pending_));
  const std::size_t start = out.size();
  out.u32(0);  // length, patched below
  out.u32(0);  // crc32(payload), patched below
  out.u8(static_cast<std::uint8_t>(type));
  encode_body(out);
  const std::size_t length = out.size() - start - 8;
  out.patch_u32(start, static_cast<std::uint32_t>(length));
  out.patch_u32(start + 4, crc32(out.bytes().data() + start + 8, length));
  pending_ = out.take();
}

void JournalWriter::write_pending() {
  out_.write(reinterpret_cast<const char*>(pending_.data()),
             static_cast<std::streamsize>(pending_.size()));
  PROPANE_CHECK_MSG(out_.good(),
                    "journal shard write failed: " + path_.string());
  bytes_written_ += pending_.size();
  pending_.clear();  // keeps its capacity for the next run
  flush();
}

void JournalWriter::stage(const RecordStamp& stamp,
                          const fi::DivergenceReport& report) {
  frame(RecordType::kInjectionResult, [&](ByteWriter& out) {
    encode_injection_record(out, stamp, report);
  });
  ++staged_records_;
}

void JournalWriter::commit() {
  if (staged_records_ == 0) return;
  const std::size_t bytes = pending_.size();
  write_pending();
  record_count_ += staged_records_;
  if (appends_ != nullptr) appends_->add(staged_records_);
  if (append_bytes_ != nullptr) append_bytes_->add(bytes);
  staged_records_ = 0;
}

void JournalWriter::append(const RecordStamp& stamp,
                           const fi::DivergenceReport& report) {
  stage(stamp, report);
  commit();
}

void JournalWriter::append(const fi::InjectionRecord& record) {
  append(stamp_of(record), record.report);
}

void JournalWriter::flush() {
  out_.flush();
  PROPANE_CHECK_MSG(out_.good(),
                    "journal shard flush failed: " + path_.string());
  if (flushes_ != nullptr) flushes_->add(1);
}

JournalScan scan_journal_file(
    const std::filesystem::path& path,
    const std::function<void(const Manifest&)>& on_manifest,
    const std::function<void(fi::InjectionRecord&&)>& sink) {
  // One sized read: opened at its end, the stream's position is the shard's
  // size. A file cut short meanwhile simply reads fewer bytes, and the
  // checks below treat what is missing as a torn tail.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  PROPANE_REQUIRE_MSG(in.is_open(),
                      "cannot open journal shard: " + path.string());
  const std::streamoff size = in.tellg();
  PROPANE_CHECK_MSG(size >= 0, "cannot read journal shard: " + path.string());
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  bytes.resize(static_cast<std::size_t>(in.gcount()));

  JournalScan scan;
  const std::size_t header_size = sizeof(kJournalMagic) + 4;
  if (bytes.size() < header_size) {
    // A shard so short it lacks even the header is crash residue from a
    // writer that died before its first flush; treat like a torn tail.
    scan.torn_tail = true;
    scan.warning = path.string() + ": file shorter than the journal header";
    return scan;
  }
  PROPANE_CHECK_MSG(
      std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) == 0,
      "not a campaign journal (bad magic): " + path.string());
  ByteReader version_reader(bytes.data() + sizeof(kJournalMagic), 4);
  const std::uint32_t version = version_reader.u32();
  PROPANE_CHECK_MSG(
      version >= kMinJournalVersion && version <= kJournalVersion,
      "unsupported journal version " + std::to_string(version) + ": " +
          path.string());

  std::size_t pos = header_size;
  bool manifest_seen = false;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < 8) {
      scan.torn_tail = true;
      scan.warning = path.string() + ": truncated frame header at offset " +
                     std::to_string(pos) + " (skipped)";
      break;
    }
    ByteReader frame_reader(bytes.data() + pos, 8);
    const std::uint32_t length = frame_reader.u32();
    const std::uint32_t stored_crc = frame_reader.u32();
    if (remaining - 8 < length || length > kMaxRecordBytes) {
      // The frame claims more bytes than the file holds: the classic torn
      // tail (the length/CRC words made it to disk, the payload did not).
      // An absurd length lands here too -- a torn header can contain any
      // bits, and a frame we cannot step over cannot be validated.
      scan.torn_tail = true;
      scan.warning = path.string() + ": truncated frame payload at offset " +
                     std::to_string(pos) + " (skipped)";
      break;
    }
    const std::uint8_t* payload = bytes.data() + pos + 8;
    PROPANE_CHECK_MSG(
        crc32(payload, length) == stored_crc,
        "journal CRC mismatch at offset " + std::to_string(pos) + ": " +
            path.string() + " (mid-file corruption, refusing to continue)");
    PROPANE_CHECK_MSG(length >= 1, "empty journal frame: " + path.string());
    const auto type = static_cast<RecordType>(payload[0]);
    if (!manifest_seen) {
      PROPANE_CHECK_MSG(type == RecordType::kManifest,
                        "first journal record is not a manifest: " +
                            path.string());
      const Manifest manifest = decode_manifest(payload + 1, length - 1);
      manifest_seen = true;
      if (on_manifest) on_manifest(manifest);
    } else {
      PROPANE_CHECK_MSG(type == RecordType::kInjectionResult,
                        "unknown journal record type " +
                            std::to_string(payload[0]) + ": " + path.string());
      fi::InjectionRecord record =
          decode_injection_record(payload + 1, length - 1, version);
      ++scan.record_count;
      if (sink) sink(std::move(record));
    }
    pos += 8 + length;
  }
  if (!manifest_seen) {
    // Header made it to disk but the manifest frame tore: same crash
    // residue case as the short-file branch above.
    scan.torn_tail = true;
    if (scan.warning.empty()) {
      scan.warning = path.string() + ": missing manifest record";
    }
  }
  return scan;
}

}  // namespace propane::store
