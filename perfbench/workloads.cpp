// The three workloads. Each is a closed loop: at most `jobs` workers pull
// grid cells or participant blocks through runner::Executor. An untraced
// run makes passes over the whole fixed-size input until --seconds have
// passed, so throughput is work completed per CPU second of the process at a
// stated input size, scaled to a reference host speed (see
// reference_cpu_seconds); per wall second it is printed as a note.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/video.hpp"
#include "net/profile.hpp"
#include "population/population_study.hpp"
#include "probes.hpp"
#include "runner/campaign.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/fairness.hpp"
#include "runner/result_store.hpp"
#include "study/ab_study.hpp"
#include "study/rating_study.hpp"
#include "web/website.hpp"

namespace perfbench {
namespace {

// Input sizes. paper_grid is the full Table-1 x Table-2 grid over all 36
// sites; population_study uses a reduced stimulus grid so its cold set-up
// stays a few seconds; contended_grid is 240 contended cells plus a policed
// overlay of 16.
constexpr std::uint32_t kPaperRuns = 2;
constexpr std::size_t kPopulationSites = 8;
constexpr std::uint32_t kPopulationRuns = 5;
constexpr std::uint64_t kParticipants = 400'000;
constexpr std::size_t kContendedSites = 15;
// The study-layer probes need more than the lab's five domains (see
// population::StudySpec::sites).
constexpr std::size_t kProbeStudySites = 6;
constexpr std::size_t kMultiflowProbeCells = 8;
// The catalog set-up of the two grids takes well under a millisecond, so
// one set-up sample is the mean over batches of builds (see batch_seconds).
// The host's speed wanders over seconds, so samples are spread over the run:
// a few before every pass.
constexpr int kSetupBatch = 20;
constexpr int kGridSetupsPerPass = 3;
// Host-speed reference (see reference_cpu_seconds). On a shared 4-vCPU VM
// the CPU time of the same pass drifted by 20% and more within minutes, with
// no steal time and no hardware counters visible to the guest, and a fixed
// loop timed between passes drifted with it. The end-to-end metrics are
// therefore stated in reference CPU seconds: CPU seconds scaled by
// kReferenceNominalS / (the loop's mean CPU seconds just before and just
// after the pass). Phases are {heap size, steps}.
struct ReferencePhase {
  std::size_t heap_size;
  std::size_t steps;
};
constexpr ReferencePhase kReferencePhases[] = {{50'000, 600'000}, {1'000'000, 1'500'000}};
constexpr double kReferenceNominalS = 0.2;

std::vector<std::string> first_sites(const std::vector<web::Website>& catalog,
                                     std::size_t count) {
  std::vector<std::string> names;
  for (const auto& site : catalog) {
    if (names.size() >= count) break;
    names.push_back(site.name);
  }
  return names;
}

/// Every `stride`-th catalog site, so a small grid still spans small and
/// large pages.
std::vector<std::string> spread_sites(const std::vector<web::Website>& catalog,
                                      std::size_t count) {
  std::vector<std::string> names;
  const std::size_t stride = std::max<std::size_t>(1, catalog.size() / count);
  for (std::size_t i = 0; i < catalog.size() && names.size() < count; i += stride) {
    names.push_back(catalog[i].name);
  }
  return names;
}

std::vector<std::string> paper_protocol_names() {
  std::vector<std::string> names;
  for (const auto& protocol : core::paper_protocols()) names.push_back(protocol.name);
  return names;
}

std::vector<net::NetworkKind> paper_networks() {
  std::vector<net::NetworkKind> kinds;
  for (const auto& profile : net::all_profiles()) kinds.push_back(profile.kind);
  return kinds;
}

runner::CampaignSpec campaign_spec(const std::vector<web::Website>& catalog,
                                   std::uint64_t seed, std::size_t sites,
                                   std::uint32_t runs) {
  runner::CampaignSpec spec;
  spec.seed = seed;
  spec.runs = runs;
  spec.sites = first_sites(catalog, sites);
  spec.protocols = paper_protocol_names();
  spec.networks = paper_networks();
  spec.validate();
  return spec;
}

const web::Website& site_named(const std::vector<web::Website>& catalog,
                               const std::string& name) {
  for (const auto& site : catalog) {
    if (site.name == name) return site;
  }
  throw std::invalid_argument("unknown site " + name);
}

bool finite_metrics(const browser::PageMetrics& m) {
  return std::isfinite(m.fvc_ms()) && std::isfinite(m.lvc_ms()) && std::isfinite(m.plt_ms()) &&
         std::isfinite(m.vc85_ms()) && std::isfinite(m.si_ms());
}

/// Output check of one stimulus video; returns the failure or "".
std::string check_video(const core::Video& video, std::uint32_t runs) {
  if (video.runs != runs) return "wrong run count";
  if (!finite_metrics(video.metrics) || !finite_metrics(video.mean_metrics) ||
      !std::isfinite(video.mean_retransmissions)) {
    return "non-finite metric";
  }
  if (video.metrics.first_visual_change > video.metrics.last_visual_change ||
      video.mean_metrics.fvc_ms() > video.mean_metrics.lvc_ms()) {
    return "FVC after LVC";
  }
  return "";
}

std::string cell_name(const std::string& site, const std::string& protocol,
                      net::NetworkKind network) {
  return site + "/" + protocol + "/" + std::string(net::to_string(network));
}

/// Stamps runner.tail_s from the public progress callback (interval 0):
/// from the first moment fewer than `jobs` cells remain to the last
/// completion. Callbacks may arrive concurrently, hence the mutex.
struct TailClock {
  std::mutex mutex;
  unsigned jobs = 1;
  std::optional<Clock::time_point> tail_start;
  std::optional<Clock::time_point> last_done;

  void observe(std::size_t pending, std::size_t completed) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex);
    if (!tail_start && pending - completed < jobs) tail_start = now;
    if (completed == pending && (!last_done || now < *last_done)) last_done = now;
  }
  [[nodiscard]] double seconds() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!tail_start || !last_done) return 0.0;
    return std::chrono::duration<double>(*last_done - *tail_start).count();
  }
};

void check_digest(Outcome& out, std::optional<std::uint64_t>& first, std::uint64_t digest) {
  if (!first) {
    first = digest;
  } else if (*first != digest) {
    out.fail("digest differs between passes over the same input");
    ++out.failed;
  }
}

/// FNV-1a over several digests in order.
std::uint64_t combine_digests(const std::vector<std::uint64_t>& digests) {
  std::uint64_t hash = fnv1a("");
  for (const std::uint64_t d : digests) hash = fnv1a(std::to_string(d) + "\n", hash);
  return hash;
}

/// One pass: one repetition of the whole fixed-size input, `work` units of
/// work (trials or participants) done in `seconds` of timed wall time and
/// `cpu_seconds` of process CPU time.
struct Pass {
  double work = 0.0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::uint64_t digest = 0;
};

/// The CPUs the calling thread may run on.
std::vector<int> usable_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins the calling thread to one CPU and restores the thread's CPU mask
/// when destroyed. A thread started while pinned would inherit the one-CPU
/// mask, so none may be.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(int cpu) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinnedToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof original_, &original_);
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t original_;
  bool pinned_ = false;
};

/// Mean CPU seconds of one call of `build`, over batches timed as one interval:
/// one batch on each usable CPU in turn. On a shared host some CPUs run this
/// single-threaded work far slower than others for minutes (1.6x measured
/// on a 4-vCPU VM), so without the spread a run's figure would depend on
/// where the scheduler put it. `build` must not start threads.
template <typename Fn>
double batch_seconds(Fn&& build) {
  const std::vector<int> cpus = usable_cpus();
  const std::size_t batches = std::max<std::size_t>(1, cpus.size());
  const Stopwatch watch;
  for (std::size_t b = 0; b < batches; ++b) {
    std::optional<PinnedToCpu> pin;
    if (!cpus.empty()) pin.emplace(cpus[b]);
    for (int i = 0; i < kSetupBatch; ++i) build();
  }
  return watch.cpu_seconds() / static_cast<double>(kSetupBatch * batches);
}

/// CPU seconds per thread of a fixed, benchmark-owned reference loop run on
/// `jobs` threads at once: binary-heap pushes and pops of pseudo-random keys,
/// the kind of work a discrete-event scheduler does, first on a heap that
/// fits the core's own cache and then on one that does not. It never calls
/// qperc, so a change to the program cannot move it; only the host's speed
/// can.
double reference_cpu_seconds(unsigned jobs) {
  std::vector<std::uint64_t> sums(jobs);
  const Stopwatch watch;
  std::vector<std::thread> threads;
  for (unsigned j = 0; j < jobs; ++j) {
    threads.emplace_back([j, &sums] {
      std::uint64_t x = 88172645463325252ULL + j;
      std::uint64_t sum = 0;
      for (const auto& [heap_size, steps] : kReferencePhases) {
        std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
        for (std::size_t i = 0; i < steps; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          heap.push(x % 1'000'003);
          if (heap.size() > heap_size) {
            sum += heap.top();
            heap.pop();
          }
        }
      }
      sums[j] = sum;  // keeps the loop from being optimised away
    });
  }
  for (auto& thread : threads) thread.join();
  return watch.cpu_seconds() / static_cast<double>(jobs);
}

/// " v1 v2 ...": the values of one note line.
std::string joined(const std::vector<double>& values) {
  std::ostringstream line;
  for (const double value : values) line << " " << value;
  return line.str();
}

/// The untraced timed loop, in this process. Each pass sets up
/// `setups_per_pass` times, then runs `pass` over the last set-up; passes
/// repeat until `seconds` have passed, at least once, and the reference loop
/// runs before the first and after every pass. The run reports the median
/// set-up time and the median rate, both in reference CPU seconds scaled by
/// the references around the pass; raw CPU and wall figures are notes.
/// Every pass must give the same digest.
template <typename SetUp, typename Fn>
void run_passes(const Options& options, Outcome& out, const char* unit_of_work,
                int setups_per_pass, SetUp&& set_up, Fn&& pass) {
  const auto start = Clock::now();
  std::vector<double> setup_s, rates, refs, cpu_setup_s, cpu_rates, wall_rates;
  std::optional<std::uint64_t> digest;
  refs.push_back(reference_cpu_seconds(options.jobs));
  do {
    std::vector<double> pass_setup_s;
    for (int i = 0; i < setups_per_pass; ++i) pass_setup_s.push_back(set_up());
    const Pass result = pass();
    check_digest(out, digest, result.digest);
    refs.push_back(reference_cpu_seconds(options.jobs));
    const double speed = 2.0 * kReferenceNominalS / (refs[refs.size() - 2] + refs.back());
    for (const double s : pass_setup_s) {
      cpu_setup_s.push_back(s);
      setup_s.push_back(s * speed);
    }
    cpu_rates.push_back(result.work / result.cpu_seconds);
    rates.push_back(cpu_rates.back() / speed);
    wall_rates.push_back(result.work / result.seconds);
  } while (seconds_since(start) < options.seconds);

  out.digest = digest.value_or(0);
  out.add("setup_s", median(setup_s), "s");
  out.add("work_per_ref_cpu_s", median(rates), "1/s");
  std::ostringstream line;
  line << "work_per_ref_cpu_s counts " << unit_of_work << "; median of " << rates.size()
       << " passes:" << joined(rates);
  out.note(line.str());
  std::ostringstream raw;
  raw << "reference loop CPU s between passes (nominal " << kReferenceNominalS
      << "):" << joined(refs);
  out.note(raw.str());
  raw.str("");
  raw << "work per CPU second, median " << median(cpu_rates) << ":" << joined(cpu_rates);
  out.note(raw.str());
  raw.str("");
  raw << "work per wall second with " << options.jobs << " jobs, median " << median(wall_rates)
      << ":" << joined(wall_rates);
  out.note(raw.str());
  raw.str("");
  raw << "setup_s median of " << setup_s.size() << " set-ups:" << joined(setup_s);
  out.note(raw.str());
  raw.str("");
  raw << "set-up CPU seconds, median " << median(cpu_setup_s) << ":" << joined(cpu_setup_s);
  out.note(raw.str());
  raw.str("");
  raw << "peak_rss_mb = " << peak_rss_mb() << " MiB (getrusage, whole run)";
  out.note(raw.str());
}

/// One full campaign over a fresh store. Returns trials completed per
/// second; adds attempted/failed cells and checks every output.
struct CampaignRun {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::uint64_t trials = 0;
  std::uint64_t digest = 0;
};

CampaignRun run_campaign_once(const runner::CampaignSpec& spec, const std::string& path,
                              const Options& options, bool collect_counters, Outcome& out,
                              TailClock* tail, SpanRecorder* spans) {
  std::filesystem::remove(path);
  runner::ResultStore store(path, spec.seed, spec.runs);
  runner::CampaignOptions campaign;
  campaign.jobs = options.jobs;
  campaign.collect_counters = collect_counters;
  if (tail != nullptr) {
    tail->jobs = options.jobs;
    campaign.progress_interval = std::chrono::milliseconds(0);
    campaign.on_progress = [tail](const runner::CampaignProgress& p) {
      tail->observe(p.pending, p.completed);
    };
  }
  CampaignRun run;
  const Stopwatch watch;
  runner::CampaignReport report;
  {
    Span span(spans, "runner.run_campaign");
    report = runner::run_campaign(spec, store, campaign);
  }
  run.seconds = watch.wall_seconds();
  run.cpu_seconds = watch.cpu_seconds();

  std::set<std::string> failed;
  for (const auto& failure : report.failures) {
    failed.insert(cell_name(failure.task.site, failure.task.protocol, failure.task.network));
    out.fail("cell " + cell_name(failure.task.site, failure.task.protocol,
                                 failure.task.network) + ": " + failure.message);
  }
  for (const auto& task : spec.tasks()) {
    if (!store.contains(task.site, task.protocol, task.network)) {
      const std::string name = cell_name(task.site, task.protocol, task.network);
      if (failed.insert(name).second) out.fail("cell " + name + " missing from the store");
    }
  }
  store.for_each([&](const core::Video& video) {
    const std::string problem = check_video(video, spec.runs);
    if (!problem.empty()) {
      const std::string name = cell_name(video.site, video.protocol, video.network);
      failed.insert(name);
      out.fail("cell " + name + ": " + problem);
    }
  });
  out.attempted += spec.grid_size();
  out.failed += failed.size();
  run.trials = (spec.grid_size() - std::min(spec.grid_size(), failed.size())) * spec.runs;
  run.digest = fnv1a(read_file(path));
  return run;
}


std::vector<ProbeCell> campaign_cells(const std::vector<web::Website>& catalog,
                                      const runner::CampaignSpec& spec) {
  std::vector<ProbeCell> cells;
  for (const auto& task : spec.tasks()) {
    ProbeCell cell;
    cell.grid_index = static_cast<std::int64_t>(task.grid_index);
    cell.site = &site_named(catalog, task.site);
    cell.protocol = &core::protocol_by_name(task.protocol);
    cell.profile = net::profile_for(task.network);
    cell.base_seed = task.base_seed;
    cells.push_back(std::move(cell));
  }
  return cells;
}

/// A few of the workload's DSL cells under 4 Cubic cross flows, for the
/// multiflow timings on workloads whose own cells are uncontended.
std::vector<ProbeCell> multiflow_probe_cells(const std::vector<ProbeCell>& cells,
                                             std::size_t count) {
  std::vector<ProbeCell> picked;
  for (const auto& cell : cells) {
    if (picked.size() >= count) break;
    if (cell.profile.kind != net::NetworkKind::kDsl) continue;
    ProbeCell contended = cell;
    contended.contention.flows = 4;
    contended.contention.mix = net::CrossMix::kCubic;
    picked.push_back(std::move(contended));
  }
  return picked;
}

/// Fills a stimulus library through the campaign runner with counters off
/// (the untraced trial path VideoLibrary::precompute uses), capped at
/// `jobs` workers, and adopts the results.
void fill_library(core::VideoLibrary& library, const runner::CampaignSpec& spec,
                  runner::ResultStore& store, const Options& options, Outcome& out,
                  TailClock* tail, SpanRecorder* spans) {
  (void)run_campaign_once(spec, store.path(), options, false, out, tail, spans);
  if (!store.load()) out.fail("stimulus store did not load back");
  Span span(spans, "runner.adopt_results");
  if (runner::adopt_results(store, library) != spec.grid_size()) {
    out.fail("stimulus library is missing conditions");
  }
}

void write_spans(const Options& options, SpanRecorder& spans, Outcome& out) {
  const std::string path = options.out_dir + "/spans_" + options.workload + "_seed" +
                           std::to_string(options.seed) + ".jsonl";
  spans.write_jsonl(path);
  out.note("spans: " + std::to_string(spans.size()) + " written to " + path);
  for (const auto& [layer, ms] : spans.self_ms_by_layer()) {
    std::ostringstream line;
    line.precision(6);
    line << "self_ms " << layer << " " << std::fixed << ms;
    out.note(line.str());
  }
}

}  // namespace

void run_paper_grid(const Options& options, Outcome& out) {
  const std::size_t sites = options.smoke ? 6 : 36;
  const std::uint32_t runs = options.smoke ? 1 : kPaperRuns;
  std::vector<web::Website> catalog;
  runner::CampaignSpec spec;
  // Catalog plus spec.
  const auto set_up = [&] {
    return batch_seconds([&] {
      catalog = web::study_catalog(options.seed);
      spec = campaign_spec(catalog, options.seed, sites, runs);
    });
  };
  const std::string path = options.out_dir + "/campaign.qcr";

  if (!options.trace) {
    run_passes(options, out, "page-load trials (trials_per_s)", kGridSetupsPerPass, set_up, [&] {
      const auto run = run_campaign_once(spec, path, options, true, out, nullptr, nullptr);
      return Pass{static_cast<double>(run.trials), run.seconds, run.cpu_seconds, run.digest};
    });
    return;
  }
  (void)set_up();
  std::optional<std::uint64_t> digest;
  SpanRecorder spans;
  TailClock tail;
  // Plain, traced, traced, plain: neither mode always runs warmer.
  const auto rep = [&](TailClock* tail_clock, SpanRecorder* recorder) {
    const auto run = run_campaign_once(spec, path, options, true, out, tail_clock, recorder);
    check_digest(out, digest, run.digest);
    return run.cpu_seconds;
  };
  double plain = rep(nullptr, nullptr);
  double traced = rep(&tail, &spans);
  traced += rep(nullptr, &spans);
  plain += rep(nullptr, nullptr);
  const double rss_mb = peak_rss_mb();

  runner::ResultStore store(path, spec.seed, spec.runs);
  if (!store.load()) out.fail("campaign store did not load back");
  core::VideoLibrary library(options.seed, runs);
  if (runner::adopt_results(store, library) != spec.grid_size()) {
    out.fail("campaign results are missing conditions");
  }
  ProbeInputs inputs;
  inputs.seed = options.seed;
  inputs.catalog = &catalog;
  inputs.cells = campaign_cells(catalog, spec);
  inputs.multiflow_cells =
      multiflow_probe_cells(inputs.cells, options.smoke ? 2 : kMultiflowProbeCells);
  inputs.cell_runs = runs;
  inputs.library = &library;
  inputs.study_sites = sites;
  inputs.store_checkpoint = [&store] { store.checkpoint(); };
  inputs.store_load = [&] {
    runner::ResultStore fresh(path, spec.seed, spec.runs);
    if (!fresh.load()) throw std::runtime_error("campaign store did not load");
  };
  inputs.tail_s = tail.seconds();
  inputs.tracing_overhead_frac = traced / plain - 1.0;
  inputs.peak_rss_mb = rss_mb;
  run_probes(options, inputs, spans, out);
  write_spans(options, spans, out);
  out.digest = digest.value_or(0);
}

namespace {

/// Output checks of one streaming study: survivors <= participants, the
/// funnel adds up, and vote totals match the cell counts.
void check_study(const population::StudySpec& spec, const population::Report& report,
                 Outcome& out, bool& ok) {
  const auto& acc = report.accumulator;
  const auto fail = [&](const std::string& what) {
    out.fail(std::string(population::kind_token(spec.kind)) + " study: " + what);
    ok = false;
  };
  if (!report.complete()) fail("incomplete");
  if (acc.participants != spec.participants) fail("participant count");
  if (acc.survivors > acc.participants) fail("more survivors than participants");
  std::uint64_t removed = 0;
  for (const auto r : acc.removed_at) removed += r;
  if (removed + acc.survivors != acc.participants) fail("funnel does not add up");
  std::uint64_t cell_votes = 0;
  std::uint64_t per_survivor = 0;
  const std::uint64_t sites = spec.sites;
  if (spec.kind == study::StudyKind::kRating) {
    for (const auto& cell : acc.rating_cells) cell_votes += cell.votes.count();
    const auto pool = [&](study::Context context) {
      return sites * core::paper_protocols().size() *
             study::networks_for_context(context).size();
    };
    per_survivor = std::min<std::uint64_t>(spec.videos_work, pool(study::Context::kWork)) +
                   std::min<std::uint64_t>(spec.videos_free_time, pool(study::Context::kFreeTime)) +
                   std::min<std::uint64_t>(spec.videos_plane, pool(study::Context::kPlane));
  } else {
    for (const auto& cell : acc.ab_cells) cell_votes += cell.total();
    per_survivor = std::min<std::uint64_t>(
        spec.videos_ab, study::ab_pairs().size() * net::all_profiles().size() * sites);
  }
  if (cell_votes != acc.votes) fail("cell vote totals differ from the vote count");
  if (acc.votes != acc.survivors * per_survivor) fail("votes per survivor");
  if (acc.seconds.count() != acc.votes) fail("seconds samples differ from votes");
}

}  // namespace

void run_population_study(const Options& options, Outcome& out) {
  const std::size_t sites = options.smoke ? 6 : kPopulationSites;
  const std::uint32_t runs = options.smoke ? 1 : kPopulationRuns;
  const std::uint64_t participants = options.smoke ? 20'000 : kParticipants;
  SpanRecorder spans;
  TailClock tail;

  // Set-up: catalog, then the cold stimulus precompute into an empty
  // library and an empty store.
  std::unique_ptr<core::VideoLibrary> library;
  std::unique_ptr<runner::ResultStore> store;
  runner::CampaignSpec spec;
  const std::string store_path = options.out_dir + "/stimuli.qcr";
  const auto set_up = [&](TailClock* tail, SpanRecorder* recorder) {
    const Stopwatch watch;
    library = std::make_unique<core::VideoLibrary>(options.seed, runs);
    spec = campaign_spec(library->catalog(), options.seed, sites, runs);
    std::filesystem::remove(store_path);
    store = std::make_unique<runner::ResultStore>(store_path, options.seed, runs);
    fill_library(*library, spec, *store, options, out, tail, recorder);
    return watch.cpu_seconds();
  };
  std::vector<population::StudySpec> specs;
  for (const auto kind : {study::StudyKind::kRating, study::StudyKind::kAb}) {
    population::StudySpec study;
    study.kind = kind;
    study.participants = participants;
    study.seed = options.seed;
    study.sites = sites;
    study.video_runs = runs;
    study.validate();
    specs.push_back(study);
  }
  std::vector<population::Report> last_reports;
  // One rating and one A/B study: the participants streamed, their timed
  // seconds and the digest of both reports.
  const auto pair_rep = [&](SpanRecorder* span_recorder) {
    Pass pass;
    std::string bytes;
    last_reports.clear();
    for (const auto& study : specs) {
      population::RunOptions run;
      run.jobs = options.jobs;
      run.checkpoint_path = options.out_dir + "/study_" +
                            std::string(population::kind_token(study.kind)) + ".qps";
      const Stopwatch watch;
      population::Report report;
      {
        Span span(span_recorder, "population.run_streaming_study");
        report = population::run_streaming_study(*library, study, run);
      }
      pass.seconds += watch.wall_seconds();
      pass.cpu_seconds += watch.cpu_seconds();
      bool ok = true;
      check_study(study, report, out, ok);
      out.attempted += report.owned_blocks;
      if (!ok) out.failed += report.owned_blocks;
      pass.work += static_cast<double>(report.accumulator.participants);
      std::ostringstream os;
      population::write_report(os, study, report.accumulator);
      bytes += os.str();
      last_reports.push_back(std::move(report));
    }
    pass.digest = fnv1a(bytes);
    return pass;
  };

  if (!options.trace) {
    run_passes(
        options, out, "participants (participants_per_s)", 1,
        [&] { return set_up(nullptr, nullptr); }, [&] { return pair_rep(nullptr); });
    return;
  }
  (void)set_up(&tail, &spans);
  std::optional<std::uint64_t> digest;
  // Plain, traced, traced, plain: neither mode always runs warmer.
  const auto rep = [&](SpanRecorder* recorder) {
    const Pass pass = pair_rep(recorder);
    check_digest(out, digest, pass.digest);
    return pass.cpu_seconds;
  };
  double plain = rep(nullptr);
  double traced = rep(&spans);
  traced += rep(&spans);
  plain += rep(nullptr);
  const double rss_mb = peak_rss_mb();

  ProbeInputs inputs;
  inputs.seed = options.seed;
  inputs.catalog = &library->catalog();
  inputs.cells = campaign_cells(library->catalog(), spec);
  inputs.multiflow_cells =
      multiflow_probe_cells(inputs.cells, options.smoke ? 2 : kMultiflowProbeCells);
  inputs.cell_runs = runs;
  inputs.library = library.get();
  inputs.study_sites = sites;
  inputs.study_reports = last_reports;
  inputs.study_specs = specs;
  inputs.store_checkpoint = [&] { store->checkpoint(); };
  inputs.store_load = [&] {
    runner::ResultStore fresh(store_path, options.seed, runs);
    if (!fresh.load()) throw std::runtime_error("stimulus store did not load");
  };
  inputs.tail_s = tail.seconds();
  inputs.tracing_overhead_frac = traced / plain - 1.0;
  inputs.peak_rss_mb = rss_mb;
  run_probes(options, inputs, spans, out);
  write_spans(options, spans, out);
  out.digest = digest.value_or(0);
}

namespace {

std::vector<runner::FairnessSpec> contended_specs(const std::vector<web::Website>& catalog,
                                                  const Options& options) {
  runner::FairnessSpec main;
  main.seed = options.seed;
  main.runs = 1;
  main.sites = spread_sites(catalog, options.smoke ? 1 : kContendedSites);
  main.protocols = {"TCP", "QUIC"};
  main.networks = options.smoke ? std::vector{net::NetworkKind::kDsl}
                                : std::vector{net::NetworkKind::kDsl, net::NetworkKind::kLte};
  main.flow_counts = options.smoke ? std::vector<std::uint32_t>{4}
                                   : std::vector<std::uint32_t>{4, 16};
  main.mixes = options.smoke ? std::vector{net::CrossMix::kCubic}
                             : std::vector{net::CrossMix::kCubic, net::CrossMix::kBbr};
  main.staggers = {SimDuration{0}};
  main.validate();

  // The policed overlay: a token bucket below both access rates.
  runner::FairnessSpec policed = main;
  policed.sites = spread_sites(catalog, options.smoke ? 1 : 2);
  policed.flow_counts = {4};
  policed.policer_rate = DataRate::megabits_per_second(6.0);
  policed.policer_burst_bytes = 64 * 1024;
  policed.validate();

  return {main, policed};
}

struct FairnessRun {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::uint64_t trials = 0;
  std::string export_bytes;
};

FairnessRun run_fairness_once(const runner::FairnessSpec& spec, const std::string& path,
                              const Options& options, Outcome& out, TailClock* tail,
                              SpanRecorder* spans) {
  std::filesystem::remove(path);
  runner::FairnessStore store(path, spec.seed, spec.runs, spec.fingerprint());
  runner::FairnessOptions fairness;
  fairness.jobs = options.jobs;
  if (tail != nullptr) {
    tail->jobs = options.jobs;
    fairness.progress_interval = std::chrono::milliseconds(0);
    fairness.on_progress = [tail](const runner::FairnessProgress& p) {
      tail->observe(p.pending, p.completed);
    };
  }
  FairnessRun run;
  const Stopwatch watch;
  runner::FairnessReport report;
  {
    Span span(spans, "runner.run_fairness");
    report = runner::run_fairness(spec, store, fairness);
  }
  run.seconds = watch.wall_seconds();
  run.cpu_seconds = watch.cpu_seconds();

  std::set<std::size_t> failed;
  for (const auto& failure : report.failures) {
    failed.insert(failure.task.grid_index);
    out.fail("fairness cell " + std::to_string(failure.task.grid_index) + ": " +
             failure.message);
  }
  for (const auto& task : spec.tasks()) {
    if (!store.contains(task.grid_index) && failed.insert(task.grid_index).second) {
      out.fail("fairness cell " + std::to_string(task.grid_index) + " missing");
    }
  }
  std::ostringstream os;
  store.for_each([&](const runner::FairnessCell& cell) {
    runner::write_fairness_record(os, cell);
    os << '\n';
    std::string problem;
    const double n = static_cast<double>(cell.flows);
    bool finite = std::isfinite(cell.mean_fvc_ms) && std::isfinite(cell.mean_lvc_ms) &&
                  std::isfinite(cell.mean_plt_ms) && std::isfinite(cell.mean_si_ms) &&
                  std::isfinite(cell.mean_vc85_ms) && std::isfinite(cell.jain_index) &&
                  std::isfinite(cell.mean_queue_peak_frac);
    for (const double g : cell.flow_goodput_bps) finite = finite && std::isfinite(g) && g >= 0.0;
    if (!finite) {
      problem = "non-finite metric";
    } else if (cell.mean_fvc_ms > cell.mean_lvc_ms) {
      problem = "FVC after LVC";
    } else if (cell.flow_goodput_bps.size() != cell.flows) {
      problem = "flow count";
    } else if (cell.flows > 0 &&
               (cell.jain_index < 1.0 / n - 1e-9 || cell.jain_index > 1.0 + 1e-9)) {
      problem = "Jain's index outside [1/n, 1]";
    } else if (cell.runs != spec.runs) {
      problem = "run count";
    }
    if (!problem.empty()) {
      failed.insert(cell.grid_index);
      out.fail("fairness cell " + std::to_string(cell.grid_index) + ": " + problem);
    }
  });
  out.attempted += spec.grid_size();
  out.failed += failed.size();
  run.trials = (spec.grid_size() - std::min(spec.grid_size(), failed.size())) * spec.runs;
  run.export_bytes = os.str();
  return run;
}

std::vector<ProbeCell> fairness_cells(const std::vector<web::Website>& catalog,
                                      const std::vector<runner::FairnessSpec>& specs) {
  std::vector<ProbeCell> cells;
  std::int64_t offset = 0;
  for (const auto& spec : specs) {
    const net::LinkConditions overlay{.link_trace = spec.link_trace,
                                      .link_trace_seed = spec.link_trace_seed,
                                      .policer_rate = spec.policer_rate,
                                      .policer_burst_bytes = spec.policer_burst_bytes};
    for (const auto& task : spec.tasks()) {
      ProbeCell cell;
      cell.grid_index = offset + static_cast<std::int64_t>(task.grid_index);
      cell.site = &site_named(catalog, task.site);
      cell.protocol = &core::protocol_by_name(task.protocol);
      cell.profile = net::profile_for(task.network);
      overlay.apply(cell.profile);
      cell.contention.flows = task.flows;
      cell.contention.mix = task.mix;
      cell.contention.start_stagger = task.stagger;
      cell.base_seed = task.base_seed;
      cells.push_back(std::move(cell));
    }
    offset += static_cast<std::int64_t>(spec.grid_size());
  }
  return cells;
}

}  // namespace

void run_contended_grid(const Options& options, Outcome& out) {
  std::vector<web::Website> catalog;
  std::vector<runner::FairnessSpec> specs;
  const auto set_up = [&] {
    return batch_seconds([&] {
      catalog = web::study_catalog(options.seed);
      specs = contended_specs(catalog, options);
    });
  };
  // Runs every grid; returns the contended trials done, their timed seconds
  // and the combined digest of the grids' exports.
  const auto run_grids = [&](TailClock* tail, SpanRecorder* spans) {
    Pass pass;
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto run =
          run_fairness_once(specs[i], options.out_dir + "/fairness_" + std::to_string(i) + ".qfs",
                            options, out, i == 0 ? tail : nullptr, spans);
      pass.seconds += run.seconds;
      pass.cpu_seconds += run.cpu_seconds;
      pass.work += static_cast<double>(run.trials);
      digests.push_back(fnv1a(run.export_bytes));
    }
    pass.digest = combine_digests(digests);
    return pass;
  };

  if (!options.trace) {
    run_passes(options, out, "contended page-load trials (trials_per_s)", kGridSetupsPerPass, set_up,
               [&] { return run_grids(nullptr, nullptr); });
    return;
  }
  (void)set_up();
  SpanRecorder spans;
  TailClock tail;
  std::optional<std::uint64_t> digest;
  // Plain, traced, traced, plain: neither mode always runs warmer.
  const auto rep = [&](TailClock* tail_clock, SpanRecorder* recorder) {
    const Pass pass = run_grids(tail_clock, recorder);
    check_digest(out, digest, pass.digest);
    return pass.cpu_seconds;
  };
  double plain = rep(nullptr, nullptr);
  double traced = rep(&tail, &spans);
  traced += rep(nullptr, &spans);
  plain += rep(nullptr, nullptr);
  const double rss_mb = peak_rss_mb();

  // Uncontended stimuli of the same sites, for the study-layer probes.
  const std::size_t study_sites = kProbeStudySites;
  core::VideoLibrary library(options.seed, 1);
  const auto stimuli = campaign_spec(catalog, options.seed, study_sites, 1);
  runner::ResultStore stimulus_store(options.out_dir + "/stimuli.qcr", options.seed, 1);
  Outcome scratch;
  fill_library(library, stimuli, stimulus_store, options, scratch, nullptr, &spans);
  for (auto& failure : scratch.check_failures) out.fail("probe stimuli: " + failure);

  const std::string store_path = options.out_dir + "/fairness_0.qfs";
  runner::FairnessStore store(store_path, specs[0].seed, specs[0].runs,
                              specs[0].fingerprint());
  if (!store.load()) out.fail("fairness store did not load back");

  ProbeInputs inputs;
  inputs.seed = options.seed;
  inputs.catalog = &catalog;
  inputs.cells = fairness_cells(catalog, specs);
  inputs.cell_runs = 1;
  inputs.library = &library;
  inputs.study_sites = study_sites;
  inputs.store_checkpoint = [&store] { store.checkpoint(); };
  inputs.store_load = [&] {
    runner::FairnessStore fresh(store_path, specs[0].seed, specs[0].runs,
                                specs[0].fingerprint());
    if (!fresh.load()) throw std::runtime_error("fairness store did not load");
  };
  inputs.tail_s = tail.seconds();
  inputs.tracing_overhead_frac = traced / plain - 1.0;
  inputs.peak_rss_mb = rss_mb;
  run_probes(options, inputs, spans, out);
  write_spans(options, spans, out);
  out.digest = digest.value_or(0);
}

}  // namespace perfbench
