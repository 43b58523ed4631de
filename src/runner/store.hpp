// Store<Codec>: the durable, resumable keyed store behind every qperc grid
// (the campaign's ResultStore, the FairnessStore, and the VideoLibrary
// cache, which shares the campaign store's format).
//
// On disk it is one checked file (checked_file.hpp):
//
//   <Codec::kMagic> model<kModelVersion> <codec.identity()> <count>
//   <one record per line, written by Codec::write>   x count, key-sorted
//   checksum <16-digit hex FNV-1a over the header line and the records>
//
// Guarantees:
//   * Atomic, durable checkpoints: a reader (or a resumed grid) only ever
//     sees a complete file; a kill or crash loses at most the records since
//     the previous checkpoint, never the file.
//   * Incremental checkpointing: put() persists automatically every
//     `checkpoint_every` insertions; callers checkpoint() for the final flush.
//   * Verified loads: the magic, model version, identity, checksum, and the
//     header count (exactly `count` lines, each one record, no duplicate
//     keys) must all hold, or nothing loads.
//   * Deterministic bytes: records are written in key order from a
//     std::map, so the file depends only on the set of records, not on job
//     count or completion order.
//
// A codec supplies:
//   using Record, Key;                         one record per Key
//   static constexpr std::string_view kMagic;  the format name and version
//   std::string identity() const;              header fields that must match
//   static Key key(const T&);                  for records and grid tasks
//   static void write(std::ostream&, const Record&);  one line, with '\n'
//   static bool read(std::istream&, Record&);  false on a malformed record
//
// Thread-safe: every member function locks an internal mutex, so executor
// workers can put() concurrently.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "runner/checked_file.hpp"

namespace qperc::runner {

template <class Codec>
class Store {
 public:
  using Record = typename Codec::Record;
  using Key = typename Codec::Key;
  using Map = std::map<Key, Record>;

  Store(std::string path, Codec codec, std::size_t checkpoint_every)
      : path_(std::move(path)),
        codec_(std::move(codec)),
        checkpoint_every_(checkpoint_every == 0 ? 1 : checkpoint_every) {}

  /// Writes `records` to `path` as one checked file under `codec`'s
  /// identity. Throws std::runtime_error when the file cannot be written.
  static void write(const std::string& path, const Codec& codec, const Map& records) {
    std::ostringstream payload;
    for (const auto& [key, record] : records) Codec::write(payload, record);
    write_checked_file(path, Codec::kMagic,
                       codec.identity() + ' ' + std::to_string(records.size()),
                       std::move(payload).str());
  }

  /// Reads a file written under the same identity into `out`. Returns false,
  /// leaving `out` untouched, on any mismatch, corruption or miscount.
  [[nodiscard]] static bool read(const std::string& path, const Codec& codec, Map& out) {
    const auto file = read_checked_file(path, Codec::kMagic);
    if (!file) return false;
    const std::string identity = codec.identity();
    const std::string_view fields = file->fields;
    if (fields.size() <= identity.size() + 1 || !fields.starts_with(identity) ||
        fields[identity.size()] != ' ') {
      return false;
    }
    std::size_t count = 0;
    std::istringstream count_field(std::string(fields.substr(identity.size() + 1)));
    if (!(count_field >> count) || !(count_field >> std::ws).eof()) return false;

    Map loaded;
    std::size_t lines = 0;
    std::string_view rest = file->payload;
    while (!rest.empty()) {
      const auto end = rest.find('\n');
      std::istringstream line(std::string(rest.substr(0, end)));
      rest.remove_prefix(end + 1);
      Record record;
      if (!Codec::read(line, record) || !(line >> std::ws).eof()) return false;
      Key key = Codec::key(record);
      if (!loaded.emplace(std::move(key), std::move(record)).second) return false;
      ++lines;
    }
    if (lines != count) return false;
    out = std::move(loaded);
    return true;
  }

  /// Replaces the contents with this store's own file. Returns false,
  /// leaving the store empty, when the file is missing or does not verify.
  [[nodiscard]] bool load() {
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.clear();
    puts_since_checkpoint_ = 0;
    return read(path_, codec_, records_);
  }

  /// Merges a compatible file (a shard's store) into memory; existing
  /// records win and nothing is checkpointed. Returns false and absorbs
  /// nothing on any mismatch.
  [[nodiscard]] bool absorb(const std::string& path) {
    Map loaded;
    if (!read(path, codec_, loaded)) return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, record] : loaded) records_.emplace(key, std::move(record));
    return true;
  }

  /// Inserts (or replaces) one record and checkpoints automatically every
  /// `checkpoint_every` insertions.
  void put(Record record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Key key = Codec::key(record);
    records_.insert_or_assign(std::move(key), std::move(record));
    if (++puts_since_checkpoint_ >= checkpoint_every_) checkpoint_locked();
  }

  /// Atomically persists the current contents.
  void checkpoint() {
    const std::lock_guard<std::mutex> lock(mutex_);
    checkpoint_locked();
  }

  [[nodiscard]] bool contains(const Key& key) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_.contains(key);
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
  }

  /// Visits every record in key order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, record] : records_) fn(record);
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const Codec& codec() const { return codec_; }

 private:
  void checkpoint_locked() {
    write(path_, codec_, records_);
    puts_since_checkpoint_ = 0;
  }

  std::string path_;
  Codec codec_;
  std::size_t checkpoint_every_;
  std::size_t puts_since_checkpoint_ = 0;
  Map records_;
  mutable std::mutex mutex_;
};

}  // namespace qperc::runner
