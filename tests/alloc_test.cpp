// Steady-state allocation budget of the page-load hot path, measured with
// the counting operator new/delete shim (util/alloc_interpose.hpp — this
// test binary's one and only TU, as the shim requires).
//
// A reused TrialContext must run trials with a bounded, small number of heap
// allocations: the event slab, the trial arena, and the flat containers keep
// their storage across Simulator::reset(), so the only per-trial heap traffic
// left is the per-origin session objects and the result copy-out. The
// per-stack budgets below are the ratcheted contract documented in
// docs/PERFORMANCE.md; raising one needs a PERFORMANCE.md update, not just a
// bigger constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "core/video.hpp"
#include "net/contention.hpp"
#include "net/profile.hpp"
#include "util/alloc_interpose.hpp"
#include "web/website.hpp"

namespace qperc {
namespace {

/// Trials measured after warm-up. Small enough for a debug-build ctest,
/// large enough that a per-trial leak of even one allocation is visible.
constexpr int kMeasuredTrials = 50;
constexpr int kWarmupTrials = 3;

double steady_state_allocs_per_trial(const std::string& protocol_name,
                                     const net::ContentionConfig& contention = {}) {
  const auto catalog = web::study_catalog(7);
  const web::Website& site = web::site_by_name(catalog, "apache.org");
  const auto& protocol = core::protocol_by_name(protocol_name);
  const net::NetworkProfile profile = net::dsl_profile();

  core::TrialContext context;
  std::uint64_t seed = 1;
  // Warm-up grows arena blocks and container capacities to their high-water
  // marks; the timed region below is the steady state users and benches see.
  for (int i = 0; i < kWarmupTrials; ++i) {
    const auto result = context.run(
        core::TrialSpec(site, protocol, profile, seed++).with_contention(contention));
    EXPECT_TRUE(result.metrics.finished);
  }

  const std::uint64_t before = heap_allocations();
  for (int i = 0; i < kMeasuredTrials; ++i) {
    const auto result = context.run(
        core::TrialSpec(site, protocol, profile, seed++).with_contention(contention));
    EXPECT_TRUE(result.metrics.finished);
  }
  return static_cast<double>(heap_allocations() - before) / kMeasuredTrials;
}

/// Steady-state heap allocations per trial, one ceiling per Table-1 stack
/// (plus the HTTP/1.1 baseline) on apache.org over DSL. Each is the
/// perfbench `core.allocs_per_trial_ctx.<stack>` count rounded up: the
/// per-origin session objects, the per-connection congestion controllers
/// (BBR's windowed filters add their deque chunks) and the result copy-out.
/// HTTP/1.1 opens up to six connections per origin, hence its larger count.
void expect_stack_in_budget(const std::string& protocol, double max_allocations_per_trial) {
  const double allocs = steady_state_allocs_per_trial(protocol);
  EXPECT_LE(allocs, max_allocations_per_trial)
      << protocol
      << " steady-state trial allocates more than its documented budget; "
         "see docs/PERFORMANCE.md before raising it";
}

TEST(AllocBudget, TcpSteadyStateTrialStaysInBudget) { expect_stack_in_budget("TCP", 18); }
TEST(AllocBudget, TcpPlusSteadyStateTrialStaysInBudget) { expect_stack_in_budget("TCP+", 18); }
TEST(AllocBudget, TcpPlusBbrSteadyStateTrialStaysInBudget) {
  expect_stack_in_budget("TCP+BBR", 30);
}
/// The QUIC ceiling is also the base of the multi-flow budget below.
constexpr double kQuicMaxAllocationsPerTrial = 18;
TEST(AllocBudget, QuicSteadyStateTrialStaysInBudget) {
  expect_stack_in_budget("QUIC", kQuicMaxAllocationsPerTrial);
}
TEST(AllocBudget, QuicPlusBbrSteadyStateTrialStaysInBudget) {
  expect_stack_in_budget("QUIC+BBR", 31);
}
TEST(AllocBudget, TcpH1SteadyStateTrialStaysInBudget) { expect_stack_in_budget("TCP-H1", 45); }

/// produce_video runs a condition's trials through one TrialContext, so they
/// cost the steady-state count plus one cold start and the Video copy-out
/// spread over the runs (~18.3 at 31 runs). A cold Simulator per trial costs
/// about twice that.
constexpr std::uint32_t kVideoRuns = 31;
constexpr double kMaxVideoAllocationsPerTrial = 19;

TEST(AllocBudget, ProduceVideoReusesItsTrialContext) {
  const auto catalog = web::study_catalog(7);
  const web::Website& site = web::site_by_name(catalog, "apache.org");
  const auto& protocol = core::protocol_by_name("QUIC");
  const net::NetworkProfile profile = net::dsl_profile();
  // Warms the process-wide catalogs and statics.
  (void)core::produce_video(site, protocol, profile, kWarmupTrials, /*base_seed=*/1);

  const std::uint64_t before = heap_allocations();
  const core::Video video = core::produce_video(site, protocol, profile, kVideoRuns,
                                                /*base_seed=*/2);
  const double allocs =
      static_cast<double>(heap_allocations() - before) / kVideoRuns;
  EXPECT_EQ(video.runs, kVideoRuns);
  EXPECT_LE(allocs, kMaxVideoAllocationsPerTrial)
      << "produce_video allocates more per trial than a reused TrialContext; "
         "see docs/PERFORMANCE.md";
}

/// The multi-flow path keeps the same discipline: endpoints, access links,
/// and the cross-traffic sources live in the per-trial arena, so the only
/// extra steady-state heap traffic is the one session object per cross flow
/// (heap for the same reason the page's per-origin sessions are). The budget
/// therefore scales linearly in the flow count on top of the single-flow
/// ceiling; see docs/PERFORMANCE.md before loosening either constant.
constexpr std::uint32_t kBudgetFlows = 16;
constexpr std::uint64_t kMaxAllocationsPerFlow = 6;

TEST(AllocBudget, MultiFlowSteadyStateTrialStaysInBudget) {
  net::ContentionConfig contention;
  contention.flows = kBudgetFlows;
  contention.mix = net::CrossMix::kMixed;  // covers both cross-session stacks
  const double allocs = steady_state_allocs_per_trial("QUIC", contention);
  EXPECT_LE(allocs, kQuicMaxAllocationsPerTrial + kBudgetFlows * kMaxAllocationsPerFlow)
      << "contended steady-state trial allocates more than the documented "
         "budget; see docs/PERFORMANCE.md before raising the constants";
}

/// The counting shim itself: a heap allocation visibly moves the counter.
TEST(AllocBudget, InterposerCountsAllocations) {
  const std::uint64_t before = heap_allocations();
  auto* p = new std::uint64_t(42);
  EXPECT_GT(heap_allocations(), before);
  delete p;
}

}  // namespace
}  // namespace qperc
