// Shared types of the end-to-end benchmark harness (see README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace qperc {}

namespace perfbench {

// The harness is a client of every qperc layer; name them unqualified.
using namespace qperc;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads of every parallel phase (runner::Executor jobs).
  unsigned jobs = 4;
  /// Reduced input sizes for the smoke test.
  bool smoke = false;
  /// Scratch directory for stores, caches and span files.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operation counts, the digest of the simulated
/// results, human-readable notes and the metrics of the selected mode.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed output check.
  std::vector<std::string> check_failures;
  /// FNV-1a over the canonical export bytes of the workload's results.
  std::uint64_t digest = 0;
  std::vector<std::string> notes;
  std::vector<Metric> metrics;

  void fail(std::string message) { check_failures.push_back(std::move(message)); }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time used so far by every thread of this process, in seconds
/// (CLOCK_PROCESS_CPUTIME_ID). Time the host or the kernel gives to other
/// work, including a vCPU's steal time, is not counted.
[[nodiscard]] double process_cpu_seconds();

/// Wall and process CPU time since construction.
struct Stopwatch {
  Clock::time_point wall_start = Clock::now();
  double cpu_start = process_cpu_seconds();

  [[nodiscard]] double wall_seconds() const { return seconds_since(wall_start); }
  [[nodiscard]] double cpu_seconds() const { return process_cpu_seconds() - cpu_start; }
};

/// Quantile by linear interpolation between order statistics (q in [0,1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// FNV-1a 64 over bytes, continuing from `hash`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = 14695981039346656037ULL);
[[nodiscard]] std::string read_file(const std::string& path);

/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// The three workloads. Each runs its timed loop (trace off) or its traced
/// run plus the probe suite (trace on) and fills `outcome`.
void run_paper_grid(const Options& options, Outcome& outcome);
void run_population_study(const Options& options, Outcome& outcome);
void run_contended_grid(const Options& options, Outcome& outcome);

}  // namespace perfbench
