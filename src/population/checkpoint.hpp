// Durable, resumable checkpoint for one population-study shard.
//
// On-disk format: a runner checked file (runner/checked_file.hpp):
//
//   qperc-popstudy-v2 model<N> <fingerprint> <shard_index> <shard_count> <block_size> <blocks_done>
//   counts <participants> <survivors> <votes>
//   removed <r1> ... <r7>
//   seconds <n> <sum_q> <sumsq_hi> <sumsq_lo>
//   cells <rating_count> <ab_count>
//   rcell <i> <n> <sum_q> <sumsq_hi> <sumsq_lo>                 x rating_count
//   acell <i> <first> <nodiff> <second> <replays> <confidence_q> x ab_count
//   checksum <16-digit hex FNV-1a over the header line and the payload>
//
// Only integer accumulator state is stored — never derived doubles — so a
// resumed run is bit-identical to an uninterrupted one. The checked file
// gives atomic, durable writes; load() rejects (leaving the caller's state
// untouched) any file with a different format or model version, study
// fingerprint, shard geometry, cell layout, truncation, or checksum
// mismatch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "population/population_study.hpp"

namespace qperc::population {

/// One shard's checkpoint as read back from disk (see read_shard).
struct ShardState {
  Accumulator accumulator;
  std::uint64_t fingerprint = 0;
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  std::uint64_t block_size = 0;
  std::uint64_t blocks_done = 0;
};

/// Reads any shard checkpoint whose cell layout matches `layout`
/// (make_accumulator of the expected kind). Returns nullopt on missing,
/// malformed, truncated, or checksum-failing files. Used by `study report`
/// to merge shard files without knowing their geometry up front.
[[nodiscard]] std::optional<ShardState> read_shard(const std::string& path,
                                                   const Accumulator& layout);

/// Writer/loader bound to one run's identity. save() is atomic and
/// durable; load() additionally verifies fingerprint and shard
/// geometry against this run's, so a checkpoint from a different study or
/// a different shard split can never be resumed silently.
class StudyStore {
 public:
  static constexpr const char* kMagic = "qperc-popstudy-v2";

  StudyStore(std::string path, std::uint64_t fingerprint, unsigned shard_index,
             unsigned shard_count, std::uint64_t block_size);

  /// Loads into `acc` (must carry the expected layout) and `blocks_done`.
  /// Returns false — leaving both untouched — when the file is missing or
  /// does not match this run's identity.
  [[nodiscard]] bool load(Accumulator& acc, std::uint64_t& blocks_done) const;

  /// Atomically persists the accumulator. Throws std::runtime_error when
  /// the file cannot be written.
  void save(const Accumulator& acc, std::uint64_t blocks_done) const;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::uint64_t fingerprint_ = 0;
  unsigned shard_index_ = 0;
  unsigned shard_count_ = 0;
  std::uint64_t block_size_ = 0;
};

}  // namespace qperc::population
