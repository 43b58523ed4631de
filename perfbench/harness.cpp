// qperc_perfbench: runs one benchmark workload against the qperc libraries
// and prints its metrics. perfbench/run.py builds and drives it; see
// README.md for the workloads and the metric map.
//
//   qperc_perfbench --workload W --seed N --seconds S --trace 0|1
//                   [--jobs J] [--size full|smoke] --out DIR
//
// Human-readable lines start with "# "; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "qperc_perfbench: " << problem
            << "\nusage: qperc_perfbench --workload paper_grid|population_study|contended_grid"
               " --seed N --seconds S --trace 0|1 [--jobs J] [--size full|smoke] --out DIR\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    usage(std::string("--") + flag + " expects a non-negative integer, got '" + text + "'");
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(value, "seed");
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(value, "seconds"));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--jobs") {
      options.jobs = static_cast<unsigned>(parse_u64(value, "jobs"));
      if (options.jobs == 0) usage("--jobs must be at least 1");
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") usage("--size expects full or smoke");
      options.smoke = value == "smoke";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (options.out_dir.empty()) usage("--out is required");
  return options;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Outcome outcome;
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "paper_grid") {
      perfbench::run_paper_grid(options, outcome);
    } else if (options.workload == "population_study") {
      perfbench::run_population_study(options, outcome);
    } else if (options.workload == "contended_grid") {
      perfbench::run_contended_grid(options, outcome);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "qperc_perfbench: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  const double failed_frac =
      outcome.attempted == 0
          ? 1.0
          : static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted);
  for (const auto& line : outcome.notes) std::cout << "# " << line << "\n";
  for (const auto& line : outcome.check_failures) std::cout << "# CHECK FAILED: " << line << "\n";
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(outcome.digest));
  std::cout << "# digest " << options.workload << " " << digest << "\n";
  std::cout << "# failed_frac " << json_number(failed_frac) << " (" << outcome.failed << "/"
            << outcome.attempted << ")\n";
  for (const auto& metric : outcome.metrics) {
    std::cout << "# " << metric.name << " = " << json_number(metric.value) << " "
              << metric.unit << "\n";
  }

  const bool correct = outcome.check_failures.empty() && outcome.failed == 0 &&
                       outcome.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& metric = outcome.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << metric.name << "\": {\"value\": "
              << json_number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
