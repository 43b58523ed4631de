// The per-layer probe suite of the traced run. It calls each layer's public
// functions on the workload's own cells and artefacts, counts trace events
// through a benchmark-owned sink, and adds every per-layer metric to the
// outcome. The same probes run on every workload, so every workload reports
// every per-layer metric; which workload a metric speaks for is listed in
// README.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/protocol.hpp"
#include "core/video.hpp"
#include "net/contention.hpp"
#include "net/profile.hpp"
#include "population/population_study.hpp"
#include "web/website.hpp"

namespace perfbench {

/// One condition the probes simulate: a workload grid cell.
struct ProbeCell {
  std::int64_t grid_index = 0;
  const web::Website* site = nullptr;
  const core::ProtocolConfig* protocol = nullptr;
  /// Table-2 profile with the workload's link overlay already applied.
  net::NetworkProfile profile;
  /// flows == 0 for a single-user (uncontended) cell.
  net::ContentionConfig contention;
  std::uint64_t base_seed = 0;
};

struct ProbeInputs {
  std::uint64_t seed = 1;
  const std::vector<web::Website>* catalog = nullptr;
  /// The workload's own cells (contended on contended_grid).
  std::vector<ProbeCell> cells;
  /// Extra contended cells for the multiflow timings on workloads whose
  /// own cells are uncontended; empty on contended_grid.
  std::vector<ProbeCell> multiflow_cells;
  /// Trials per produce_video cell in the cell-time probe.
  std::uint32_t cell_runs = 1;
  /// Stimuli covering study_sites x Table-1 protocols x Table-2 networks.
  core::VideoLibrary* library = nullptr;
  std::size_t study_sites = 0;
  /// Streaming-study results of the workload itself (population_study);
  /// when empty the probe runs its own small studies over `library`.
  std::vector<population::Report> study_reports;
  std::vector<population::StudySpec> study_specs;
  /// The workload's durable store: one atomic checkpoint / one cold load.
  std::function<void()> store_checkpoint;
  std::function<void()> store_load;
  /// Measured by the workload's traced run: runner tail, tracing overhead,
  /// and peak RSS after set-up and the four repetitions.
  double tail_s = 0.0;
  double tracing_overhead_frac = 0.0;
  double peak_rss_mb = 0.0;
};

/// Runs every probe and adds all per-layer metrics to `outcome`.
void run_probes(const Options& options, ProbeInputs& inputs, SpanRecorder& spans,
                Outcome& outcome);

}  // namespace perfbench
