#include "fi/trace.hpp"

#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/contracts.hpp"

namespace propane::fi {

namespace {

/// Process-wide intern cache. Keyed by the '\0'-joined names ('\0' cannot
/// appear inside a signal name, so the key is unambiguous). A campaign
/// registers a handful of distinct tables, so the cache stays tiny.
std::string table_key(const std::vector<std::string>& names) {
  std::string key;
  std::size_t size = 0;
  for (const std::string& name : names) size += name.size() + 1;
  key.reserve(size);
  for (const std::string& name : names) {
    key += name;
    key += '\0';
  }
  return key;
}

}  // namespace

SignalNameTable intern_signal_names(std::vector<std::string> names) {
  static std::mutex mutex;
  static std::unordered_map<std::string, SignalNameTable> cache;

  std::string key = table_key(names);
  std::scoped_lock lock(mutex);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(std::move(key),
                      std::make_shared<const std::vector<std::string>>(
                          std::move(names)))
             .first;
  }
  return it->second;
}

TraceSet::TraceSet(std::vector<std::string> signal_names)
    : TraceSet(std::make_shared<const std::vector<std::string>>(
          std::move(signal_names))) {}

TraceSet::TraceSet(SignalNameTable signal_names)
    : names_(std::move(signal_names)) {
  PROPANE_REQUIRE(names_ != nullptr);
  width_ = names_->size();
}

const std::string& TraceSet::signal_name(BusSignalId id) const {
  PROPANE_REQUIRE(id < width_);
  return (*names_)[id];
}

void TraceSet::reserve(std::size_t samples) {
  samples_.reserve(samples * width_);
}

void TraceSet::append(std::initializer_list<std::uint16_t> row) {
  append(std::span<const std::uint16_t>(row.begin(), row.size()));
}

void TraceSet::append_rows(std::span<const std::uint16_t> values) {
  PROPANE_REQUIRE_MSG(width_ > 0 && values.size() % width_ == 0,
                      "row block size must be a multiple of signal count");
  samples_.insert(samples_.end(), values.begin(), values.end());
  rows_ += values.size() / width_;
}

std::vector<std::uint16_t> TraceSet::series(BusSignalId id) const {
  PROPANE_REQUIRE(id < width_);
  std::vector<std::uint16_t> column;
  column.reserve(rows_);
  for (std::size_t ms = 0; ms < rows_; ++ms) {
    column.push_back(samples_[ms * width_ + id]);
  }
  return column;
}

TraceRecorder::TraceRecorder(const SignalBus& bus, std::size_t reserve_samples)
    : bus_(bus), trace_(intern_signal_names(bus.names())) {
  trace_.reserve(reserve_samples);
}

}  // namespace propane::fi
