// run_grid: the one loop behind every resumable grid (campaign, fairness).
//
// Given a shard's tasks, a Store and a cell function, it skips the tasks
// whose key is already stored (resume), caps the rest at max_tasks,
// executes them on the runner::Executor, puts each cell's record into the
// store (which checkpoints incrementally), emits throttled progress, captures
// failures without stopping the other cells, and checkpoints once at the end.
//
// Determinism: run_grid adds nothing to a cell's result. Seeds come from
// each task's identity, and the store writes key-sorted records, so the
// final store bytes are identical across --jobs, --shard, and resume cycles.
#pragma once

// qperc-lint: allow-file(wall-clock) operator-facing progress/ETA display only; wall time never reaches trial results or the event schedule
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runner/executor.hpp"
#include "runner/store.hpp"

namespace qperc::runner {

struct GridProgress {
  std::size_t total = 0;     // tasks in this shard's grid slice
  std::size_t skipped = 0;   // already in the store (resume)
  std::size_t pending = 0;   // scheduled for execution this run
  std::size_t completed = 0; // finished successfully this run
  double elapsed_seconds = 0.0;
  double tasks_per_second = 0.0;
  /// Estimated seconds until the pending tasks finish (0 when unknown).
  double eta_seconds = 0.0;
};

/// One grid cell whose every attempt threw; the grid completed the rest
/// and recorded this.
template <class Task>
struct GridFailure {
  Task task;
  unsigned attempts = 0;
  std::string message;
  std::exception_ptr error;
};

template <class Task>
struct GridReport {
  std::size_t total = 0;
  std::size_t skipped = 0;
  std::size_t executed = 0;  // attempted this run = completed + failures
  std::vector<GridFailure<Task>> failures;
  double elapsed_seconds = 0.0;
};

struct GridOptions {
  /// Worker threads; 0 = one per hardware thread.
  unsigned jobs = 0;
  /// Attempts per task before recording a failure.
  unsigned max_attempts = 2;
  /// Stop after executing this many pending tasks (0 = unlimited). Tests
  /// and the e2e harnesses use it to emulate an interrupted run at a
  /// deterministic point; the next --resume run picks up the rest.
  std::size_t max_tasks = 0;
  /// Throttled progress callback (invoked from worker threads), plus one
  /// final snapshot from the calling thread.
  std::function<void(const GridProgress&)> on_progress;
  std::chrono::milliseconds progress_interval{500};
};

/// Runs `tasks` (one shard's slice, in grid order) into `store`;
/// `cell_fn(task)` returns the task's record and may run on any worker.
template <class Task, class Codec, class CellFn>
GridReport<Task> run_grid(const std::vector<Task>& tasks, Store<Codec>& store,
                          CellFn&& cell_fn, const GridOptions& options) {
  std::vector<Task> pending;
  pending.reserve(tasks.size());
  for (const Task& task : tasks) {
    if (!store.contains(Codec::key(task))) pending.push_back(task);
  }
  GridReport<Task> report;
  report.total = tasks.size();
  report.skipped = report.total - pending.size();
  if (options.max_tasks != 0 && pending.size() > options.max_tasks) {
    pending.resize(options.max_tasks);
  }

  const auto start = std::chrono::steady_clock::now();
  std::mutex progress_mutex;
  std::size_t completed = 0;
  auto last_emit = start;
  const auto snapshot = [&] {  // callers hold progress_mutex
    GridProgress progress;
    progress.total = report.total;
    progress.skipped = report.skipped;
    progress.pending = pending.size();
    progress.completed = completed;
    progress.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (progress.elapsed_seconds > 0.0 && completed > 0) {
      progress.tasks_per_second =
          static_cast<double>(completed) / progress.elapsed_seconds;
      progress.eta_seconds =
          static_cast<double>(pending.size() - completed) / progress.tasks_per_second;
    }
    return progress;
  };

  const Executor executor({.jobs = options.jobs, .max_attempts = options.max_attempts});
  auto failures = executor.run(pending.size(), [&](std::size_t index) {
    store.put(cell_fn(pending[index]));
    GridProgress progress;
    bool emit = false;
    {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      ++completed;
      const auto now = std::chrono::steady_clock::now();
      if (options.on_progress && now - last_emit >= options.progress_interval) {
        last_emit = now;
        progress = snapshot();
        emit = true;
      }
    }
    if (emit) options.on_progress(progress);
  });
  store.checkpoint();

  report.executed = pending.size();
  report.failures.reserve(failures.size());
  for (auto& failure : failures) {
    report.failures.push_back({.task = pending[failure.index],
                               .attempts = failure.attempts,
                               .message = std::move(failure.message),
                               .error = failure.error});
  }
  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (options.on_progress) {
    const std::lock_guard<std::mutex> lock(progress_mutex);
    options.on_progress(snapshot());
  }
  return report;
}

}  // namespace qperc::runner
