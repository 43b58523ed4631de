#include "probes.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "population/checkpoint.hpp"
#include "runner/executor.hpp"
#include "stats/streaming.hpp"
#include "study/participant.hpp"
#include "study/rater.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
// The one translation unit of the harness that replaces operator new: the
// per-protocol split counts allocations through it.
#include "util/alloc_interpose.hpp"

namespace perfbench {
namespace {

using trace::EventType;

constexpr std::size_t kEventTypes = static_cast<std::size_t>(EventType::kLinkDroppedPolicer) + 1;
constexpr std::array<trace::Category, 5> kCategories = {
    trace::Category::kTransport, trace::Category::kRecovery, trace::Category::kHttp,
    trace::Category::kBrowser, trace::Category::kNet};

/// Counts a trial's events and stamps the host time of the page's first
/// completed handshake (the root connection's). On a contended trial the
/// cross-traffic connections are created before the page load, so they hold
/// transport flow ids 1..cross_flows (see TrialContext::run). Every event is
/// counted by type; only the page's events (the other flows, and flow 0 of
/// the browser) are folded into trace::TrialCounters and may stamp the
/// handshake.
class CountingSink final : public trace::TraceSink {
 public:
  void begin_trial(std::uint64_t cross_flows) {
    counts_.fill(0);
    page_ = trace::TrialCounters{};
    page_events_ = 0;
    cross_flows_ = cross_flows;
    handshake_ns_ = -1.0;
    start_ = Clock::now();
  }
  void on_event(const trace::Event& event) override {
    ++counts_[static_cast<std::size_t>(event.type)];
    if (event.flow != 0 && event.flow <= cross_flows_) return;
    ++page_events_;
    page_.observe(event);
    if (event.type == EventType::kHandshakeCompleted && handshake_ns_ < 0.0) {
      handshake_ns_ = std::chrono::duration<double, std::nano>(Clock::now() - start_).count();
    }
  }
  /// Every flow's events, by type.
  [[nodiscard]] const std::array<std::uint64_t, kEventTypes>& counts() const { return counts_; }
  /// The page's own events.
  [[nodiscard]] const trace::TrialCounters& page() const { return page_; }
  [[nodiscard]] std::uint64_t page_events() const { return page_events_; }
  [[nodiscard]] double handshake_ns() const { return handshake_ns_; }
  [[nodiscard]] Clock::time_point start() const { return start_; }

 private:
  std::array<std::uint64_t, kEventTypes> counts_{};
  trace::TrialCounters page_;
  std::uint64_t page_events_ = 0;
  std::uint64_t cross_flows_ = 0;
  double handshake_ns_ = -1.0;
  Clock::time_point start_{};
};

/// What `campaign run` attaches by default: TrialCounters folded per event.
class CounterSink final : public trace::TraceSink {
 public:
  void on_event(const trace::Event& event) override { counters_.observe(event); }

 private:
  trace::TrialCounters counters_;
};

struct TrialRecord {
  bool quic = false;
  bool multiflow = false;
  /// From ProbeInputs::cells (the workload's own) rather than multiflow_cells.
  bool own = true;
  /// Untraced host time; the traced replay's is only the handshake share's base.
  double host_ns = 0.0;
  double traced_host_ns = 0.0;
  std::uint64_t events = 0;
  /// Every flow's trace events by type, and the page's own.
  std::array<std::uint64_t, kEventTypes> counts{};
  trace::TrialCounters page;
  std::uint64_t page_events = 0;
  double handshake_ns = -1.0;
  bool finished = false;
  double peak_queue_frac = 0.0;
};

std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t run) {
  // produce_video's per-run derivation.
  Rng run_rng = Rng(base_seed).fork(run + 1);
  return run_rng.next_u64();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Each cell's first trial through reused TrialContexts (one per worker):
/// once untraced for timing, once with the counting sink.
std::vector<TrialRecord> trial_probe(const ProbeInputs& in, unsigned jobs,
                                     SpanRecorder& spans) {
  struct Task {
    const ProbeCell* cell;
    bool own;
  };
  std::vector<Task> tasks;
  for (const auto& cell : in.cells) tasks.push_back({&cell, true});
  for (const auto& cell : in.multiflow_cells) tasks.push_back({&cell, false});

  std::vector<TrialRecord> records(tasks.size());
  const runner::Executor executor(runner::ExecutorOptions{.jobs = jobs});
  const unsigned workers = executor.resolved_jobs(tasks.size());
  std::vector<std::unique_ptr<core::TrialContext>> contexts(workers);
  std::vector<CountingSink> sinks(workers);
  std::mutex slot_mutex;
  std::vector<bool> slot_busy(workers, false);

  Span probe(&spans, "core.trial_probe");
  const std::int64_t parent = probe.id();
  const auto failures = executor.run(tasks.size(), [&](std::size_t i) {
    std::size_t slot = 0;
    {
      const std::lock_guard<std::mutex> lock(slot_mutex);
      while (slot_busy[slot]) ++slot;
      slot_busy[slot] = true;
    }
    if (!contexts[slot]) contexts[slot] = std::make_unique<core::TrialContext>();
    const ProbeCell& cell = *tasks[i].cell;
    CountingSink& sink = sinks[slot];
    TrialRecord& record = records[i];
    core::ContentionOutcome outcome;
    const core::TrialSpec spec = core::TrialSpec(*cell.site, *cell.protocol, cell.profile,
                                                 trial_seed(cell.base_seed, 0))
                                     .with_contention(cell.contention);
    {
      // Untraced first: host time and event count of the shipped path.
      Span span(&spans, cell.contention.enabled() ? "core.multiflow_trial" : "core.trial",
                cell.grid_index, parent);
      const auto start = Clock::now();
      const auto result = contexts[slot]->run(spec, &outcome);
      record.host_ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
      record.events = contexts[slot]->simulator().events_processed();
      record.finished = result.metrics.finished;
    }
    {
      // Traced replay (bit-identical trial) for the event counts and the
      // handshake stamp.
      Span span(&spans, "trace.counting_trial", cell.grid_index, parent);
      core::TrialSpec traced = spec;
      traced.trace = &sink;
      sink.begin_trial(cell.contention.flows);
      (void)contexts[slot]->run(traced);
      record.traced_host_ns =
          std::chrono::duration<double, std::nano>(Clock::now() - sink.start()).count();
    }
    record.quic = cell.protocol->transport == core::Transport::kQuic;
    record.multiflow = cell.contention.enabled();
    record.own = tasks[i].own;
    record.counts = sink.counts();
    record.page = sink.page();
    record.page_events = sink.page_events();
    record.handshake_ns = sink.handshake_ns();
    if (record.multiflow && outcome.queue_capacity_bytes != 0) {
      record.peak_queue_frac = static_cast<double>(outcome.peak_queue_bytes) /
                               static_cast<double>(outcome.queue_capacity_bytes);
    }
    const std::lock_guard<std::mutex> lock(slot_mutex);
    slot_busy[slot] = false;
  });
  if (!failures.empty()) std::rethrow_exception(failures.front().error);
  return records;
}

void report_trial_records(const std::vector<TrialRecord>& records, Outcome& out) {
  double trials = 0, host_ns = 0, events = 0, finished = 0, cross_events = 0;
  std::array<double, kEventTypes> sums{};
  std::array<double, kCategories.size()> by_category{};
  trace::TrialCounters page;
  struct Family {
    trace::TrialCounters counters;
    double trials = 0, handshake_ns = 0, traced_host_ns = 0;
  };
  Family tcp, quic;
  std::vector<double> multiflow_ms;
  double peak_frac_sum = 0, multiflow_trials = 0;
  std::uint64_t unmatched = 0;
  for (const auto& r : records) {
    if (r.multiflow) {
      multiflow_ms.push_back(r.host_ns / 1e6);
      peak_frac_sum += r.peak_queue_frac;
      ++multiflow_trials;
    }
    if (!r.own) continue;
    ++trials;
    host_ns += r.host_ns;
    events += static_cast<double>(r.events);
    finished += r.finished ? 1 : 0;
    double all_events = 0;
    for (std::size_t t = 0; t < kEventTypes; ++t) {
      sums[t] += static_cast<double>(r.counts[t]);
      all_events += static_cast<double>(r.counts[t]);
      const auto category = trace::category_of(static_cast<EventType>(t));
      for (std::size_t c = 0; c < kCategories.size(); ++c) {
        if (kCategories[c] == category) by_category[c] += static_cast<double>(r.counts[t]);
      }
    }
    cross_events += all_events - static_cast<double>(r.page_events);
    // The flow split holds when every connection the browser opened, and no
    // other, started a handshake among the page's events.
    if (r.page.handshakes_started != r.page.connections_opened) ++unmatched;
    page.merge(r.page);
    Family& f = r.quic ? quic : tcp;
    ++f.trials;
    f.counters.merge(r.page);
    if (r.handshake_ns >= 0.0) f.handshake_ns += r.handshake_ns;
    f.traced_host_ns += r.traced_host_ns;
  }
  if (unmatched != 0) {
    out.fail(std::to_string(unmatched) +
             " traced trials: page handshakes differ from the connections the browser opened");
  }
  const auto per_trial = [&](EventType type) {
    return ratio(sums[static_cast<std::size_t>(type)], trials);
  };
  out.add("sim.events_per_trial", ratio(events, trials), "count");
  out.add("sim.ns_per_event", ratio(host_ns, events), "ns");
  out.add("net.link_packets_per_trial", per_trial(EventType::kLinkEnqueued), "count");
  out.add("net.delivered_ratio",
          ratio(sums[static_cast<std::size_t>(EventType::kLinkDelivered)],
                sums[static_cast<std::size_t>(EventType::kLinkEnqueued)]),
          "ratio");
  out.add("net.queue_drops_per_trial", per_trial(EventType::kLinkDroppedQueueFull), "count");
  out.add("net.bottleneck_peak_queue_frac", ratio(peak_frac_sum, multiflow_trials), "ratio");
  out.add("cc.ack_updates_per_trial", per_trial(EventType::kMetricsUpdated), "count");
  for (const auto& [name, f] : {std::pair{"tcp", tcp}, std::pair{"quic", quic}}) {
    const std::string layer(name);
    const auto& c = f.counters;
    out.add(layer + ".packets_sent_per_trial",
            ratio(static_cast<double>(c.packets_sent), f.trials), "count");
    out.add(layer + ".retransmit_ratio",
            ratio(static_cast<double>(c.retransmissions), static_cast<double>(c.packets_sent)),
            "ratio");
    out.add(layer + ".spurious_ratio",
            ratio(static_cast<double>(c.spurious_losses), static_cast<double>(c.packets_lost)),
            "ratio");
    out.add(layer + ".handshake_host_share", ratio(f.handshake_ns, f.traced_host_ns), "ratio");
  }
  out.add("http.requests_per_trial", ratio(static_cast<double>(page.requests_submitted), trials),
          "count");
  out.add("browser.objects_per_trial",
          ratio(static_cast<double>(page.objects_completed), trials), "count");
  out.add("browser.page_complete_ratio", ratio(finished, trials), "ratio");
  for (std::size_t c = 0; c < kCategories.size(); ++c) {
    out.add("trace.events_per_trial." + std::string(trace::to_string(kCategories[c])),
            ratio(by_category[c], trials), "count");
  }
  out.add("trace.cross_events_per_trial", ratio(cross_events, trials), "count");
  out.add("core.multiflow_trial_ms_p50", quantile(multiflow_ms, 0.5), "ms");
  out.add("core.multiflow_trial_ms_p99", quantile(multiflow_ms, 0.99), "ms");
  out.note("trial probe: " + std::to_string(static_cast<std::uint64_t>(trials)) +
           " traced trials on the workload's cells, " +
           std::to_string(multiflow_ms.size()) + " contended trials");
}

/// Untraced core::run_trial on the workload's cells (contention stripped),
/// enough rounds for ~1000 samples so the p99 has ten beyond it.
void run_trial_probe(const ProbeInputs& in, const Options& options, SpanRecorder& spans,
                     Outcome& out) {
  const std::size_t target = options.smoke ? 100 : 1000;
  const std::size_t cells = in.cells.size();
  const std::size_t rounds = std::max<std::size_t>(1, (target + cells - 1) / cells);
  const std::size_t total = rounds * cells;
  std::vector<double> us(total, 0.0);
  const runner::Executor executor(runner::ExecutorOptions{.jobs = options.jobs});
  Span probe(&spans, "core.run_trial_probe");
  const std::int64_t parent = probe.id();
  const auto failures = executor.run(total, [&](std::size_t i) {
    const ProbeCell& cell = in.cells[i % cells];
    const auto start = Clock::now();
    {
      Span span(&spans, "core.run_trial", cell.grid_index, parent);
      const auto result = core::run_trial(core::TrialSpec(
          *cell.site, *cell.protocol, cell.profile, trial_seed(cell.base_seed, i / cells)));
      if (!std::isfinite(result.metrics.fvc_ms())) throw std::runtime_error("non-finite FVC");
    }
    us[i] = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  });
  if (!failures.empty()) std::rethrow_exception(failures.front().error);
  out.add("core.trial_us_p50", quantile(us, 0.5), "us");
  out.add("core.trial_us_p99", quantile(us, 0.99), "us");
  out.note("run_trial probe: " + std::to_string(total) + " trials at " +
           std::to_string(options.jobs) + " jobs");
}

/// Six stacks for the per-protocol split: Table 1's five plus the HTTP/1.1
/// baseline.
std::vector<const core::ProtocolConfig*> split_protocols() {
  std::vector<const core::ProtocolConfig*> protocols;
  for (const auto& protocol : core::paper_protocols()) protocols.push_back(&protocol);
  protocols.push_back(&core::http1_baseline_protocol());
  return protocols;
}

/// Metric suffix of a protocol name: lower case, "+" -> "-plus"
/// ("TCP+BBR" -> "tcp-plus-bbr").
std::string protocol_suffix(const std::string& name) {
  std::string suffix;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (name[i] == '+') {
      suffix += "-plus";
      if (i + 1 < name.size()) suffix += '-';
    } else {
      suffix += static_cast<char>(std::tolower(static_cast<unsigned char>(name[i])));
    }
  }
  return suffix;
}

/// Per-protocol allocations and timings on one reference condition
/// (apache.org over DSL), through core::run_trial (a fresh Simulator per
/// trial, as produce_video does) and through one reused TrialContext.
/// Single-threaded: the allocation counter is process-wide.
void protocol_split_probe(const ProbeInputs& in, const Options& options, SpanRecorder& spans,
                          Outcome& out) {
  const web::Website* site = &in.catalog->front();
  for (const auto& candidate : *in.catalog) {
    if (candidate.name == "apache.org") site = &candidate;
  }
  const net::NetworkProfile profile = net::dsl_profile();
  const std::size_t n = options.smoke ? 30 : 400;
  std::vector<double> us;
  us.reserve(n);
  for (const core::ProtocolConfig* protocol : split_protocols()) {
    const std::string suffix = protocol_suffix(protocol->name);
    const std::uint64_t base = core::condition_base_seed(in.seed, site->name, protocol->name,
                                                         net::NetworkKind::kDsl);
    for (const bool reuse : {false, true}) {
      core::TrialContext context;
      const auto one = [&](std::size_t i) {
        const core::TrialSpec spec(*site, *protocol, profile, trial_seed(base, i));
        if (reuse) {
          const auto result = context.run(spec);
          return result.metrics.finished;
        }
        const auto result = core::run_trial(spec);
        return result.metrics.finished;
      };
      for (std::size_t i = 0; i < 3; ++i) (void)one(i);  // warm caches and the context
      us.clear();
      Span span(&spans, reuse ? "core.trial_context_run" : "core.run_trial");
      span.set_calls(n);
      const std::uint64_t allocs_before = qperc::heap_allocations();
      for (std::size_t i = 0; i < n; ++i) {
        const auto start = Clock::now();
        (void)one(i);
        us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - start).count());
      }
      const double allocs =
          static_cast<double>(qperc::heap_allocations() - allocs_before) / static_cast<double>(n);
      const std::string path = reuse ? "_ctx." : ".";
      out.add("core.allocs_per_trial" + path + suffix, allocs, "count");
      out.add("core.trial_us_p50" + path + suffix, quantile(us, 0.5), "us");
      out.add("core.trial_us_p99" + path + suffix, quantile(us, 0.99), "us");
    }
  }
  out.note("protocol split: " + std::to_string(n) + " trials per protocol and path on " +
           site->name + "/DSL, single thread");
}

/// Counters-on vs counters-off host time of the same trials (interleaved
/// rounds through one reused context, single thread).
void trace_overhead_probe(const ProbeInputs& in, const Options& options, SpanRecorder& spans,
                          Outcome& out) {
  const std::size_t cells = std::min<std::size_t>(in.cells.size(), options.smoke ? 8 : 64);
  const std::size_t stride = std::max<std::size_t>(1, in.cells.size() / cells);
  core::TrialContext context;
  CounterSink sink;
  double off_ns = 0.0, on_ns = 0.0;
  Span probe(&spans, "trace.overhead_probe");
  for (std::size_t round = 0; round < 3; ++round) {
    for (const bool traced : {round % 2 == 0, round % 2 != 0}) {
      const auto start = Clock::now();
      for (std::size_t k = 0; k < cells; ++k) {
        const ProbeCell& cell = in.cells[(k * stride) % in.cells.size()];
        core::TrialSpec spec(*cell.site, *cell.protocol, cell.profile,
                             trial_seed(cell.base_seed, round));
        if (traced) spec.trace = &sink;
        (void)context.run(spec);
      }
      const double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
      (traced ? on_ns : off_ns) += ns;
    }
  }
  out.add("trace.overhead_frac", ratio(on_ns, off_ns) - 1.0, "ratio");
}

/// produce_video per cell over the executor, one span per cell.
void cell_probe(const ProbeInputs& in, const Options& options, SpanRecorder& spans,
                Outcome& out) {
  std::vector<double> ms(in.cells.size(), 0.0);
  const runner::Executor executor(runner::ExecutorOptions{.jobs = options.jobs});
  Span probe(&spans, "core.cell_probe");
  const std::int64_t parent = probe.id();
  const auto failures = executor.run(in.cells.size(), [&](std::size_t i) {
    const ProbeCell& cell = in.cells[i];
    const auto start = Clock::now();
    {
      Span span(&spans, "core.produce_video", cell.grid_index, parent);
      const auto video = core::produce_video(*cell.site, *cell.protocol, cell.profile,
                                             in.cell_runs, cell.base_seed);
      if (video.runs != in.cell_runs) throw std::runtime_error("produce_video lost runs");
    }
    ms[i] = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  });
  if (!failures.empty()) std::rethrow_exception(failures.front().error);
  out.add("core.cell_ms_p50", quantile(ms, 0.5), "ms");
  out.add("core.cell_ms_p99", quantile(ms, 0.99), "ms");
  out.note("cell probe: " + std::to_string(ms.size()) + " produce_video cells x " +
           std::to_string(in.cell_runs) + " runs");
}

template <typename Fn>
std::vector<double> time_ms(SpanRecorder& spans, const char* name, std::size_t k, Fn&& fn) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < k; ++i) {
    const auto start = Clock::now();
    {
      Span span(&spans, name);
      fn();
    }
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  }
  return ms;
}

void store_probe(const ProbeInputs& in, const Options& options, SpanRecorder& spans,
                 Outcome& out) {
  const std::size_t k = options.smoke ? 3 : 15;
  const auto checkpoint = time_ms(spans, "runner.checkpoint", k, in.store_checkpoint);
  const auto load = time_ms(spans, "runner.store_load", k, in.store_load);
  out.add("runner.checkpoint_ms_p50", quantile(checkpoint, 0.5), "ms");
  out.add("runner.checkpoint_ms_max", *std::max_element(checkpoint.begin(), checkpoint.end()),
          "ms");
  out.add("runner.store_load_ms", median(load), "ms");
  out.add("runner.tail_s", in.tail_s, "s");

  const std::string cache = options.out_dir + "/probe_videos.qvc";
  const auto save = time_ms(spans, "core.video_cache_save", k,
                            [&] { in.library->save_cache(cache); });
  std::vector<double> load_ms;
  for (std::size_t i = 0; i < k; ++i) {
    core::VideoLibrary fresh(in.library->catalog_seed(), in.library->runs(),
                             in.library->conditions());
    const auto start = Clock::now();
    bool loaded = false;
    {
      Span span(&spans, "core.video_cache_load");
      loaded = fresh.load_cache(cache);
    }
    load_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
    if (!loaded || fresh.cached_conditions() != in.library->cached_conditions()) {
      out.fail("video cache round trip lost conditions");
    }
  }
  out.add("core.video_cache_save_ms", median(save), "ms");
  out.add("core.video_cache_load_ms", median(load_ms), "ms");
}

/// Study-layer micro-timings over the workload's stimuli, plus the
/// streaming engine's funnel, merge and checkpoint costs.
void study_probe(ProbeInputs& in, const Options& options, SpanRecorder& spans, Outcome& out) {
  std::vector<const core::Video*> videos;
  std::size_t sites = 0;
  for (const auto& site : *in.catalog) {
    if (sites++ >= in.study_sites) break;
    for (const auto& protocol : core::paper_protocols()) {
      for (const auto& profile : net::all_profiles()) {
        videos.push_back(&in.library->get(site.name, protocol.name, profile.kind));
      }
    }
  }
  const std::size_t n = options.smoke ? 20'000 : 200'000;
  const auto per_call_ns = [&](const char* name, auto&& body) {
    const auto start = Clock::now();
    {
      Span span(&spans, name);
      span.set_calls(n);
      body();
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
           static_cast<double>(n);
  };
  Rng rng = study::participant_stream(in.seed, 0);
  double sink = 0.0;
  std::vector<study::Participant> people;
  people.reserve(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    people.push_back(study::sample_participant(study::Group::kMicroworker, rng));
  }
  const double sample_ns = per_call_ns("study.sample_participant", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      sink += study::sample_participant(study::Group::kMicroworker, rng).rating_bias;
    }
  });
  const double rate_ns = per_call_ns("study.rate_video", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      sink += study::rate_video(*videos[i % videos.size()], study::Context::kWork,
                                people[i % people.size()], rng);
    }
  });
  const double ab_ns = per_call_ns("study.ab_vote", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      sink += study::ab_vote(*videos[i % videos.size()], *videos[(i + 1) % videos.size()],
                             people[i % people.size()], rng)
                  .confidence;
    }
  });
  std::vector<double> values(4096);
  for (auto& v : values) v = rng.normal(40.0, 12.0);
  stats::ExactMoments moments;
  const double push_ns = per_call_ns("stats.moments_push", [&] {
    for (std::size_t i = 0; i < n; ++i) moments.push(values[i % values.size()]);
  });
  if (!std::isfinite(sink) || moments.count() != n) out.fail("study probe produced garbage");
  out.add("study.sample_participant_ns", sample_ns, "ns");
  out.add("study.rate_video_ns", rate_ns, "ns");
  out.add("study.ab_vote_ns", ab_ns, "ns");
  out.add("stats.moments_push_ns", push_ns, "ns");

  if (in.study_reports.empty()) {
    for (const auto kind : {study::StudyKind::kRating, study::StudyKind::kAb}) {
      population::StudySpec spec;
      spec.kind = kind;
      spec.participants = options.smoke ? 5'000 : 100'000;
      spec.seed = in.seed;
      spec.sites = in.study_sites;
      spec.video_runs = in.library->runs();
      spec.conditions = in.library->conditions();
      population::RunOptions run;
      run.jobs = options.jobs;
      Span span(&spans, "population.run_streaming_study");
      in.study_reports.push_back(population::run_streaming_study(*in.library, spec, run));
      in.study_specs.push_back(spec);
    }
  }
  double participants = 0, survivors = 0, votes = 0;
  for (const auto& report : in.study_reports) {
    participants += static_cast<double>(report.accumulator.participants);
    survivors += static_cast<double>(report.accumulator.survivors);
    votes += static_cast<double>(report.accumulator.votes);
  }
  out.add("study.survivor_ratio", ratio(survivors, participants), "ratio");
  out.add("population.votes_per_participant", ratio(votes, participants), "count");

  const std::size_t merges = options.smoke ? 200 : 2000;
  double merge_ns = 0.0;
  for (const auto& report : in.study_reports) {
    auto target = report.accumulator;
    const auto start = Clock::now();
    {
      Span span(&spans, "population.merge");
      span.set_calls(merges);
      for (std::size_t i = 0; i < merges; ++i) target.merge(report.accumulator);
    }
    merge_ns += std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    if (target.participants != report.accumulator.participants * (merges + 1)) {
      out.fail("Accumulator::merge lost participants");
    }
  }
  out.add("population.merge_us",
          merge_ns / 1e3 / static_cast<double>(merges * in.study_reports.size()), "us");

  const population::StudyStore store(options.out_dir + "/probe_study.qps",
                                     in.study_specs.front().fingerprint(), 0, 1, 8192);
  const auto save = time_ms(spans, "population.checkpoint", options.smoke ? 3 : 15, [&] {
    store.save(in.study_reports.front().accumulator, in.study_reports.front().blocks_done);
  });
  out.add("population.checkpoint_ms", median(save), "ms");
}

}  // namespace

void run_probes(const Options& options, ProbeInputs& inputs, SpanRecorder& spans,
                Outcome& outcome) {
  Span root(&spans, "bench.probes");
  report_trial_records(trial_probe(inputs, options.jobs, spans), outcome);
  run_trial_probe(inputs, options, spans, outcome);
  protocol_split_probe(inputs, options, spans, outcome);
  trace_overhead_probe(inputs, options, spans, outcome);
  cell_probe(inputs, options, spans, outcome);
  store_probe(inputs, options, spans, outcome);
  study_probe(inputs, options, spans, outcome);
  const auto catalog_ms = time_ms(spans, "web.study_catalog", options.smoke ? 3 : 9, [&] {
    if (web::study_catalog(inputs.seed).size() != inputs.catalog->size()) {
      throw std::runtime_error("catalog size changed");
    }
  });
  outcome.add("web.catalog_build_ms", median(catalog_ms), "ms");
  outcome.add("bench.tracing_overhead_frac", inputs.tracing_overhead_frac, "ratio");
  outcome.add("peak_rss_mb", inputs.peak_rss_mb, "MiB");
}

}  // namespace perfbench
