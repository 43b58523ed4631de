// The one durable file layer and every store built on it: the campaign's
// ResultStore, the FairnessStore, the population StudyStore and the
// VideoLibrary cache. Failure paths leave no temp file, the model version
// and the header count are enforced, and seeded mutants (truncations,
// single-bit flips, splices of two valid files) either fail to load or load
// exactly one of the files they came from.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/video.hpp"
#include "net/contention.hpp"
#include "population/checkpoint.hpp"
#include "population/population_study.hpp"
#include "runner/checked_file.hpp"
#include "runner/fairness.hpp"
#include "runner/result_store.hpp"
#include "util/rng.hpp"

namespace qperc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Every path temp_path hands out, removed when the test binary exits.
struct TempPaths {
  std::vector<std::string> paths;
  ~TempPaths() {
    for (const auto& path : paths) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
      std::filesystem::remove(path + ".tmp", ec);
    }
  }
};

/// A fresh path under the test temp dir, unique per test and tag.
std::string temp_path(const std::string& tag) {
  static TempPaths created;
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = testing::TempDir() + "qperc_store_" + info->test_suite_name() +
                           "_" + info->name() + "_" + tag;
  std::filesystem::remove_all(path);
  std::filesystem::remove(path + ".tmp");
  created.paths.push_back(path);
  return path;
}

/// Recomputes the checksum footer over everything above it, so a test can
/// change a verified field and still present a well-formed file.
std::string reseal(const std::string& bytes) {
  const std::size_t footer = bytes.rfind('\n', bytes.size() - 2) + 1;
  const std::string body = bytes.substr(0, footer);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a(body)));
  return body + "checksum " + hex + "\n";
}

core::Video synthetic_video(const std::string& site, const std::string& protocol,
                            net::NetworkKind network, std::int64_t base) {
  core::Video video;
  video.site = site;
  video.protocol = protocol;
  video.network = network;
  video.runs = 2;
  video.mean_retransmissions = 3.25;
  video.metrics.first_visual_change = SimDuration{base + 1'000'000};
  video.metrics.speed_index = SimDuration{base + 2'000'000};
  video.metrics.visual_complete_85 = SimDuration{base + 3'000'000};
  video.metrics.last_visual_change = SimDuration{base + 4'000'000};
  video.metrics.page_load_time = SimDuration{base + 5'123'456};
  video.mean_metrics = video.metrics;
  video.vc_curve = {{SimTime{base + 1'000'000}, 0.25}, {SimTime{base + 4'000'000}, 1.0}};
  return video;
}

runner::FairnessCell synthetic_cell(std::size_t grid_index, double plt_ms) {
  runner::FairnessCell cell;
  cell.grid_index = grid_index;
  cell.site = "apache.org";
  cell.protocol = "QUIC";
  cell.network = net::NetworkKind::kLte;
  cell.flows = 2;
  cell.mix = net::CrossMix::kMixed;
  cell.stagger = SimDuration{250'000'000};
  cell.runs = 5;
  cell.pages_finished = 5;
  cell.mean_plt_ms = plt_ms;
  cell.mean_si_ms = 456.125;
  cell.jain_index = 0.875;
  cell.flow_goodput_bps = {1.5e6, 2.25e6};
  return cell;
}

population::Accumulator synthetic_accumulator(std::uint64_t participants) {
  auto acc = population::make_accumulator(study::StudyKind::kAb);
  acc.participants = participants;
  acc.survivors = participants - 3;
  acc.votes = participants * 4;
  acc.removed_at[1] = 3;
  acc.seconds.push(12.5);
  acc.seconds.push(7.25);
  for (std::size_t i = 0; i < acc.ab_cells.size(); ++i) {
    acc.ab_cells[i].prefer_first = participants + i;
    acc.ab_cells[i].replays = i;
  }
  return acc;
}

/// One store kind, seen through its own public API: write one of two valid
/// files with the same identity, attempt a save into an arbitrary path, and
/// load a file into its canonical bytes (loaded, then saved again), or
/// nullopt when the store rejects it.
struct StoreKind {
  std::string name;
  std::function<void(const std::string& path, int variant)> write;
  std::function<void(const std::string& path)> save_to;
  std::function<std::optional<std::string>(const std::string& path)> canonical;
};

constexpr std::uint64_t kSeed = 7;
constexpr std::uint32_t kRuns = 2;
constexpr std::uint64_t kFingerprint = 4242;

void fill(runner::ResultStore& store, int variant) {
  store.put(synthetic_video("gov.uk", "QUIC", net::NetworkKind::kDsl, variant));
  store.put(synthetic_video("wikipedia.org", "TCP", net::NetworkKind::kLte, 7 * variant));
}

void fill(runner::FairnessStore& store, int variant) {
  store.put(synthetic_cell(3, 2345.675 + variant));
  store.put(synthetic_cell(9, 1234.5));
}

void fill(core::VideoLibrary& library, int variant) {
  library.insert(synthetic_video("gov.uk", "QUIC", net::NetworkKind::kDsl, variant));
  library.insert(synthetic_video("etsy.com", "TCP", net::NetworkKind::kMss, 11 * variant));
}

std::vector<StoreKind> store_kinds(const std::string& scratch) {
  std::vector<StoreKind> kinds;
  kinds.push_back(
      {"campaign",
       [](const std::string& path, int variant) {
         runner::ResultStore store(path, kSeed, kRuns);
         fill(store, variant);
         store.checkpoint();
       },
       [](const std::string& path) {
         runner::ResultStore store(path, kSeed, kRuns);
         fill(store, 0);
         store.checkpoint();
       },
       [scratch](const std::string& path) -> std::optional<std::string> {
         runner::ResultStore store(path, kSeed, kRuns);
         if (!store.load()) return std::nullopt;
         runner::ResultStore copy(scratch, kSeed, kRuns);
         store.for_each([&copy](const core::Video& video) { copy.put(video); });
         copy.checkpoint();
         return slurp(scratch);
       }});
  kinds.push_back(
      {"fairness",
       [](const std::string& path, int variant) {
         runner::FairnessStore store(path, kSeed, kRuns, kFingerprint);
         fill(store, variant);
         store.checkpoint();
       },
       [](const std::string& path) {
         runner::FairnessStore store(path, kSeed, kRuns, kFingerprint);
         fill(store, 0);
         store.checkpoint();
       },
       [scratch](const std::string& path) -> std::optional<std::string> {
         runner::FairnessStore store(path, kSeed, kRuns, kFingerprint);
         if (!store.load()) return std::nullopt;
         runner::FairnessStore copy(scratch, kSeed, kRuns, kFingerprint);
         store.for_each([&copy](const runner::FairnessCell& cell) { copy.put(cell); });
         copy.checkpoint();
         return slurp(scratch);
       }});
  kinds.push_back(
      {"study",
       [](const std::string& path, int variant) {
         const population::StudyStore store(path, kFingerprint, 1, 3, 64);
         store.save(synthetic_accumulator(1000 + static_cast<std::uint64_t>(variant)),
                    5 + static_cast<std::uint64_t>(variant));
       },
       [](const std::string& path) {
         const population::StudyStore store(path, kFingerprint, 0, 1, 64);
         store.save(synthetic_accumulator(1000), 5);
       },
       [scratch](const std::string& path) -> std::optional<std::string> {
         const auto shard =
             population::read_shard(path, population::make_accumulator(study::StudyKind::kAb));
         if (!shard) return std::nullopt;
         const population::StudyStore copy(scratch, shard->fingerprint, shard->shard_index,
                                           shard->shard_count, shard->block_size);
         copy.save(shard->accumulator, shard->blocks_done);
         return slurp(scratch);
       }});
  kinds.push_back(
      {"video-cache",
       [](const std::string& path, int variant) {
         core::VideoLibrary library(kSeed, kRuns);
         fill(library, variant);
         library.save_cache(path);
       },
       [](const std::string& path) {
         core::VideoLibrary library(kSeed, kRuns);
         fill(library, 0);
         library.save_cache(path);
       },
       [scratch](const std::string& path) -> std::optional<std::string> {
         core::VideoLibrary library(kSeed, kRuns);
         if (!library.load_cache(path)) return std::nullopt;
         library.save_cache(scratch);
         return slurp(scratch);
       }});
  return kinds;
}

// --- the file layer ----------------------------------------------------------

TEST(CheckedFile, RoundTripsHeaderFieldsAndPayload) {
  const std::string path = temp_path("file");
  runner::write_checked_file(path, "qperc-test-v1", "a b 3", "one\ntwo\n");
  const auto file = runner::read_checked_file(path, "qperc-test-v1");
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->fields, "a b 3");
  EXPECT_EQ(file->payload, "one\ntwo\n");
  EXPECT_EQ(slurp(path).substr(0, slurp(path).find('\n')),
            "qperc-test-v1 model" + std::to_string(runner::kModelVersion) + " a b 3");
  EXPECT_FALSE(runner::read_checked_file(path, "qperc-test-v2").has_value());
  EXPECT_FALSE(runner::read_checked_file(path + ".missing", "qperc-test-v1").has_value());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // The helper used below re-seals an intact file to the same bytes.
  EXPECT_EQ(reseal(slurp(path)), slurp(path));
}

// --- failure paths -----------------------------------------------------------

TEST(Store, FailedRenameThrowsAndLeavesNoTempFile) {
  const std::string scratch = temp_path("scratch");
  for (const auto& kind : store_kinds(scratch)) {
    SCOPED_TRACE(kind.name);
    // A directory at the target: the temp file is written, the rename fails.
    const std::string path = temp_path(kind.name);
    std::filesystem::create_directory(path);
    EXPECT_THROW(kind.save_to(path), std::runtime_error);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    EXPECT_TRUE(std::filesystem::is_directory(path));
  }
}

TEST(Store, UnwritableTempFileThrows) {
  const std::string scratch = temp_path("scratch");
  for (const auto& kind : store_kinds(scratch)) {
    SCOPED_TRACE(kind.name);
    EXPECT_THROW(kind.save_to(temp_path(kind.name) + "/no/such/dir/file"),
                 std::runtime_error);
  }
}

// --- model version -----------------------------------------------------------

TEST(Store, EveryKindRejectsAnotherModelVersion) {
  const std::string scratch = temp_path("scratch");
  const std::string ours = " model" + std::to_string(runner::kModelVersion) + " ";
  const std::string other = " model" + std::to_string(runner::kModelVersion + 1) + " ";
  for (const auto& kind : store_kinds(scratch)) {
    SCOPED_TRACE(kind.name);
    const std::string path = temp_path(kind.name);
    kind.write(path, 0);
    ASSERT_TRUE(kind.canonical(path).has_value());
    std::string bytes = slurp(path);
    const auto at = bytes.find(ours);
    ASSERT_NE(at, std::string::npos);
    ASSERT_LT(at, bytes.find('\n'));
    bytes.replace(at, ours.size(), other);
    spill(path, reseal(bytes));
    EXPECT_FALSE(kind.canonical(path).has_value());
  }
}

// --- header count ------------------------------------------------------------

template <class Codec>
std::string record_line(const typename Codec::Record& record) {
  std::ostringstream os;
  Codec::write(os, record);
  return os.str();
}

template <class StoreType>
void expect_count_enforced(const StoreType& reference, const std::string& line_a,
                           const std::string& line_b, const std::string& path) {
  using Codec = std::decay_t<decltype(reference.codec())>;
  const std::string identity = reference.codec().identity();
  const auto loads = [&](const std::string& count, const std::string& payload) {
    runner::write_checked_file(path, Codec::kMagic, identity + ' ' + count, payload);
    StoreType store(path, reference.codec(), 1);
    return store.load();
  };
  EXPECT_TRUE(loads("2", line_a + line_b));
  EXPECT_FALSE(loads("3", line_a + line_b));
  EXPECT_FALSE(loads("1", line_a + line_b));
  EXPECT_FALSE(loads("2", line_a + line_a));  // a duplicate key
  EXPECT_FALSE(loads("2", line_a + "\n" + line_b));
  EXPECT_FALSE(loads("2 extra", line_a + line_b));
}

TEST(Store, RejectsAHeaderCountThatDisagreesWithTheRecords) {
  {
    using VideoStore = runner::Store<core::VideoCodec>;
    const VideoStore reference({}, core::VideoCodec{kSeed, kRuns, {}}, 1);
    expect_count_enforced<VideoStore>(
        reference,
        record_line<core::VideoCodec>(
            synthetic_video("gov.uk", "QUIC", net::NetworkKind::kDsl, 0)),
        record_line<core::VideoCodec>(
            synthetic_video("gov.uk", "TCP", net::NetworkKind::kDsl, 0)),
        temp_path("videos"));
  }
  {
    using CellStore = runner::Store<runner::FairnessCodec>;
    const CellStore reference({}, runner::FairnessCodec{kSeed, kRuns, kFingerprint}, 1);
    expect_count_enforced<CellStore>(
        reference, record_line<runner::FairnessCodec>(synthetic_cell(3, 1.0)),
        record_line<runner::FairnessCodec>(synthetic_cell(4, 1.0)), temp_path("cells"));
  }
}

// --- concurrency -------------------------------------------------------------

TEST(Store, ConcurrentPutsCheckpointEveryRecord) {
  const std::string path = temp_path("fairness.qfr");
  runner::FairnessStore store(path, kSeed, kRuns, kFingerprint, /*checkpoint_every=*/1);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < 4; ++w) {
    workers.emplace_back([&store, w] {
      for (std::size_t i = 0; i < 8; ++i) store.put(synthetic_cell(w * 8 + i, 1.0));
    });
  }
  for (auto& worker : workers) worker.join();
  runner::FairnessStore reader(path, kSeed, kRuns, kFingerprint);
  ASSERT_TRUE(reader.load());
  EXPECT_EQ(reader.size(), 32u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// --- seeded mutations --------------------------------------------------------

TEST(StoreMutation, EveryMutantIsRejectedOrLoadsAnOriginal) {
  const std::string scratch = temp_path("scratch");
  Rng rng(20191209);
  for (const auto& kind : store_kinds(scratch)) {
    SCOPED_TRACE(kind.name);
    const std::string path_a = temp_path(kind.name + "_a");
    const std::string path_b = temp_path(kind.name + "_b");
    kind.write(path_a, 1);
    kind.write(path_b, 2);
    const auto original_a = kind.canonical(path_a);
    const auto original_b = kind.canonical(path_b);
    ASSERT_TRUE(original_a.has_value());
    ASSERT_TRUE(original_b.has_value());
    ASSERT_NE(*original_a, *original_b);
    const std::string a = slurp(path_a);
    const std::string b = slurp(path_b);

    const std::string mutant_path = temp_path(kind.name + "_mutant");
    std::size_t loaded = 0;
    const auto check = [&](const std::string& mutant, bool splice, const std::string& what) {
      spill(mutant_path, mutant);
      const auto result = kind.canonical(mutant_path);
      if (!result) return;
      ++loaded;
      const bool exact = *result == *original_a || (splice && *result == *original_b);
      EXPECT_TRUE(exact) << what << " loaded different contents";
    };

    for (int i = 0; i < 64; ++i) {
      const std::size_t cut = rng.next_u64() % a.size();
      check(a.substr(0, cut), false, "truncation at " + std::to_string(cut));
    }
    for (int i = 0; i < 256; ++i) {
      const std::size_t at = rng.next_u64() % a.size();
      const int bit = static_cast<int>(rng.next_u64() % 8);
      std::string mutant = a;
      mutant[at] = static_cast<char>(mutant[at] ^ (1 << bit));
      check(mutant, false, "bit " + std::to_string(bit) + " of byte " + std::to_string(at));
    }
    for (int i = 0; i < 64; ++i) {
      const std::size_t cut_a = rng.next_u64() % (a.size() + 1);
      const std::size_t cut_b = rng.next_u64() % (b.size() + 1);
      check(a.substr(0, cut_a) + b.substr(cut_b), true,
            "splice a[0," + std::to_string(cut_a) + ") + b[" + std::to_string(cut_b) + ",)");
    }
    // Whole-file splices: one file's header with the other's records.
    const std::size_t a_body = a.find('\n') + 1;
    const std::size_t b_body = b.find('\n') + 1;
    check(a.substr(0, a_body) + b.substr(b_body), true, "a's header on b's records");
    check(b.substr(0, b_body) + a.substr(a_body), true, "b's header on a's records");
    // The unmutated file is the one input that must load.
    check(a, false, "the original");
    EXPECT_GE(loaded, 1u);
  }
}

}  // namespace
}  // namespace qperc
