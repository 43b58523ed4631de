#include "runner/campaign_runner.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/protocol.hpp"
#include "core/video.hpp"
#include "net/profile.hpp"
#include "trace/trace.hpp"
#include "web/website.hpp"

namespace qperc::runner {

namespace {

struct CounterSink final : trace::TraceSink {
  trace::TrialCounters counters;
  void on_event(const trace::Event& event) override { counters.observe(event); }
};

}  // namespace

CampaignReport run_campaign(const CampaignSpec& spec, ResultStore& store,
                            const CampaignOptions& options) {
  spec.validate();
  if (store.codec().identity() != core::VideoCodec{spec.seed, spec.runs, {}}.identity()) {
    throw std::invalid_argument("result store (seed, runs) does not match the campaign");
  }

  // One catalog for the whole campaign; lookups are read-only and safe to
  // share across workers.
  const auto catalog = web::study_catalog(spec.seed);
  std::mutex counters_mutex;
  trace::TrialCounters totals;

  GridOptions grid{.jobs = options.jobs,
                   .max_attempts = options.max_attempts,
                   .max_tasks = options.max_tasks,
                   .on_progress = nullptr,
                   .progress_interval = options.progress_interval};
  if (options.on_progress) {
    grid.on_progress = [&](const GridProgress& snapshot) {
      CampaignProgress progress;
      static_cast<GridProgress&>(progress) = snapshot;
      {
        const std::lock_guard<std::mutex> lock(counters_mutex);
        progress.counters = totals;
      }
      options.on_progress(progress);
    };
  }

  CampaignReport report;
  static_cast<GridReport<CampaignTask>&>(report) = run_grid(
      spec.tasks(), store,
      [&](const CampaignTask& task) {
        CounterSink sink;
        core::Video video = core::produce_video(
            web::site_by_name(catalog, task.site), core::protocol_by_name(task.protocol),
            net::profile_for(task.network), spec.runs, task.base_seed,
            options.collect_counters ? &sink : nullptr);
        if (options.collect_counters) {
          const std::lock_guard<std::mutex> lock(counters_mutex);
          totals.merge(sink.counters);
        }
        return video;
      },
      grid);
  report.counters = totals;
  return report;
}

std::size_t adopt_results(const ResultStore& store, core::VideoLibrary& library) {
  if (store.codec().identity() !=
      core::VideoCodec{library.catalog_seed(), library.runs(), library.conditions()}
          .identity()) {
    throw std::invalid_argument("result store (seed, runs) does not match the library");
  }
  std::size_t adopted = 0;
  store.for_each([&](const core::Video& video) {
    if (library.insert(video)) ++adopted;
  });
  return adopted;
}

}  // namespace qperc::runner
