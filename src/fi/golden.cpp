#include "fi/golden.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/contracts.hpp"

namespace propane::fi {

DivergenceReport::DivergenceReport(std::size_t signal_count) {
  PROPANE_REQUIRE(signal_count <= UINT32_MAX);
  per_signal.signal_count_ = static_cast<std::uint32_t>(signal_count);
}

void DivergenceReport::note(std::size_t signal, std::uint64_t first_ms,
                            std::uint16_t golden_value,
                            std::uint16_t observed_value) {
  PROPANE_REQUIRE_MSG(signal < per_signal.signal_count_,
                      "diverged signal outside the report's bus");
  std::vector<DivergenceEntry>& entries = per_signal.entries_;
  if (entries.capacity() == 0) entries.reserve(per_signal.signal_count_);
  const auto at = std::ranges::upper_bound(entries, signal, {},
                                           &DivergenceEntry::signal);
  PROPANE_REQUIRE_MSG(at == entries.begin() || std::prev(at)->signal != signal,
                      "signal's first divergence noted twice");
  entries.insert(at, {first_ms, static_cast<std::uint32_t>(signal),
                      golden_value, observed_value});
}

namespace {

/// Index of the first differing value between two equal-length buffers, or
/// `count` when they are identical. Scans in large memcmp chunks so the
/// common long-identical prefix costs a cache-friendly byte compare
/// instead of one bounds-checked load pair per value.
std::size_t first_difference(const std::uint16_t* a, const std::uint16_t* b,
                             std::size_t count) {
  constexpr std::size_t kChunk = 8192;  // values (16 KiB per side)
  for (std::size_t pos = 0; pos < count; pos += kChunk) {
    const std::size_t n = std::min(kChunk, count - pos);
    if (std::memcmp(a + pos, b + pos, n * sizeof(std::uint16_t)) == 0) {
      continue;
    }
    for (std::size_t i = pos; i < pos + n; ++i) {
      if (a[i] != b[i]) return i;
    }
  }
  return count;
}

}  // namespace

DivergenceReport compare_to_golden(const TraceSet& golden,
                                   const TraceSet& injected) {
  PROPANE_REQUIRE_MSG(golden.signal_count() == injected.signal_count(),
                      "trace sets must cover the same signals");
  const std::size_t signals = golden.signal_count();
  const std::size_t common =
      std::min(golden.sample_count(), injected.sample_count());
  const bool length_differs =
      golden.sample_count() != injected.sample_count();

  DivergenceReport report(signals);
  if (signals == 0) return report;

  // Phase 1: locate the first differing sample row with contiguous chunked
  // scans over the flat row-major buffers. Everything before it is
  // identical by construction, so the per-signal resolution below never
  // has to look at it.
  const std::uint16_t* g = golden.data();
  const std::uint16_t* o = injected.data();
  const std::size_t first_row =
      first_difference(g, o, common * signals) / signals;

  // Phase 2: resolve each signal's first divergence from that row onward.
  // Comparison stops at the first difference per signal (Section 7.3);
  // `unresolved` holds the signals still waiting for theirs, so the scan
  // ends as soon as every signal diverged (or the common prefix ends).
  std::vector<BusSignalId> unresolved;
  unresolved.reserve(signals);
  for (BusSignalId s = 0; s < signals; ++s) unresolved.push_back(s);
  for (std::size_t ms = first_row; ms < common && !unresolved.empty(); ++ms) {
    const std::uint16_t* grow = g + ms * signals;
    const std::uint16_t* orow = o + ms * signals;
    for (std::size_t i = 0; i < unresolved.size();) {
      const BusSignalId s = unresolved[i];
      if (grow[s] != orow[s]) {
        report.note(s, ms, grow[s], orow[s]);
        unresolved[i] = unresolved.back();
        unresolved.pop_back();
      } else {
        ++i;
      }
    }
  }

  if (length_differs) {
    // A run that ends earlier/later than the golden run differs in every
    // signal from the first uncovered sample onwards.
    for (const BusSignalId s : unresolved) report.note(s, common, 0, 0);
  }
  return report;
}

}  // namespace propane::fi
