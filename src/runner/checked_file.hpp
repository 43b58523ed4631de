// The one durable file format behind every qperc store, checkpoint and
// cache (runner::Store, population::StudyStore, the VideoLibrary cache):
//
//   <magic> model<kModelVersion> <fields>
//   <payload: zero or more '\n'-terminated lines>
//   checksum <16-digit hex FNV-1a over the header line and the payload>
//
// Writes are atomic and durable: the bytes go to "<path>.tmp", which is
// fsync'd, renamed over <path>, and the directory is fsync'd, so a reader
// only ever sees a complete file, even after a crash. Reads are verified:
// a file is returned only when its magic and model version match and the
// footer's checksum covers exactly the bytes above it.
//
// Non-template and std/POSIX-only, so src/core (the video cache) can link it
// from below the qperc_runner library, like executor.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace qperc::runner {

/// Version of the simulator model that produced a file's results. Every
/// header carries it and every reader rejects any other value, so a store,
/// checkpoint or stimulus cache written by an older simulator never loads
/// silently. Rule: bump it at every golden recapture (tests/golden_test.cpp),
/// i.e. whenever a deliberate behaviour change moves trial results.
inline constexpr std::uint32_t kModelVersion = 1;

/// Atomically replaces `path` with "<magic> model<kModelVersion> <fields>\n"
/// + `payload` + the checksum footer. `payload` must be empty or end in
/// '\n'. Throws std::runtime_error when any step fails; the temp file is
/// removed on every failure path and `path` keeps its previous contents.
void write_checked_file(const std::string& path, std::string_view magic,
                        std::string_view fields, std::string_view payload);

struct CheckedFile {
  /// The header after the magic and model tokens.
  std::string fields;
  /// Everything between the header line and the footer.
  std::string payload;
};

/// Reads a file written by write_checked_file with the same `magic`.
/// Returns nullopt when the file is missing or unreadable, its magic or
/// model version differs, the footer is absent, malformed or not the last
/// line, or the checksum does not match.
[[nodiscard]] std::optional<CheckedFile> read_checked_file(const std::string& path,
                                                           std::string_view magic);

}  // namespace qperc::runner
