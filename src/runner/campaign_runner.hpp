// Executes a CampaignSpec against a durable ResultStore through run_grid.
//
// Resume semantics: tasks whose condition is already in the store are
// skipped (never recomputed), so re-running after an interruption
// continues from the last checkpoint. Because every task's seed derives
// from its identity (see campaign.hpp) and the store writes key-sorted
// records, the final store bytes are identical whether the campaign ran in
// one shot or across any number of interruptions, shards, or job counts.
//
// Progress: an optional callback receives throttled snapshots (at most one
// per progress_interval, plus a final one) carrying completion counts,
// rate, ETA, and the campaign-wide trace::TrialCounters aggregated from
// every trial's qlog-style event stream (PR-1 trace layer). Attaching the
// counter sinks never changes results — tracing is observation-only.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>

#include "runner/campaign.hpp"
#include "runner/grid.hpp"
#include "runner/result_store.hpp"
#include "trace/counters.hpp"

namespace qperc::core {
class VideoLibrary;
}

namespace qperc::runner {

struct CampaignProgress : GridProgress {
  /// Aggregate of every completed trial's trace counters (zero when
  /// collect_counters is off). Sum/max fields only; see TrialCounters::merge.
  trace::TrialCounters counters;
};

/// One grid cell whose every attempt threw; the campaign completed the
/// rest and recorded this.
using CampaignFailure = GridFailure<CampaignTask>;

struct CampaignOptions {
  /// Worker threads; 0 = one per hardware thread.
  unsigned jobs = 0;
  /// Attempts per task before recording a failure.
  unsigned max_attempts = 2;
  /// Stop after executing this many pending tasks (0 = unlimited). Used by
  /// tests and the e2e harness to emulate an interrupted campaign at a
  /// deterministic point; the next --resume run picks up the rest.
  std::size_t max_tasks = 0;
  /// Attach a per-task trace sink and aggregate TrialCounters campaign-wide.
  bool collect_counters = true;
  /// Throttled progress callback (see GridOptions::on_progress).
  std::function<void(const CampaignProgress&)> on_progress;
  std::chrono::milliseconds progress_interval{500};
};

struct CampaignReport : GridReport<CampaignTask> {
  trace::TrialCounters counters;
};

/// Runs (the spec's shard of) the grid, skipping conditions already in the
/// store, and checkpoints the store incrementally plus once at the end.
/// Throws std::invalid_argument when the store's identity does not match
/// the spec. Task failures do not throw — they are captured in
/// the report while the remaining tasks complete.
CampaignReport run_campaign(const CampaignSpec& spec, ResultStore& store,
                            const CampaignOptions& options = {});

/// Copies every stored result into the library's in-memory cache (existing
/// entries win). Returns the number of newly adopted conditions. Throws
/// std::invalid_argument when store and library disagree on (seed, runs,
/// link conditions).
std::size_t adopt_results(const ResultStore& store, core::VideoLibrary& library);

}  // namespace qperc::runner
