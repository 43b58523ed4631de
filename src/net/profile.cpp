#include "net/profile.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "net/packet.hpp"
#include "util/check.hpp"

namespace qperc::net {
namespace {

std::uint64_t queue_bytes(DataRate rate, SimDuration delay) {
  return std::max<std::uint64_t>(rate.bytes_in(delay), 2 * kMtuBytes);
}

// validate() runs per trial on the hot path; the happy path must stay
// allocation-free (scripts/analyze_hotpath.py proves it statically). All
// failure formatting — label lookup, concatenation, std::to_string — lives
// behind these cold noreturn barriers so only a compare-and-branch remains
// in hot text.
[[noreturn]] QPERC_COLD_PATH void invalid_profile(const NetworkProfile& profile,
                                                  const char* what) {
  const std::string label =
      profile.name.empty() ? std::string(to_string(profile.kind)) : profile.name;
  throw std::invalid_argument("invalid network profile '" + label + "': " + what);
}

[[noreturn]] QPERC_COLD_PATH void invalid_loss_rate(const NetworkProfile& profile) {
  invalid_profile(profile, ("loss_rate must be in [0, 1], got " +
                            std::to_string(profile.loss_rate))
                               .c_str());
}

}  // namespace

std::string_view to_string(NetworkKind kind) {
  switch (kind) {
    case NetworkKind::kDsl: return "DSL";
    case NetworkKind::kLte: return "LTE";
    case NetworkKind::kDa2gc: return "DA2GC";
    case NetworkKind::kMss: return "MSS";
  }
  return "?";
}

void NetworkProfile::validate() const {
  if (uplink.is_zero()) invalid_profile(*this, "uplink bandwidth must be > 0");
  if (downlink.is_zero()) invalid_profile(*this, "downlink bandwidth must be > 0");
  if (!(loss_rate >= 0.0 && loss_rate <= 1.0)) invalid_loss_rate(*this);
  if (min_rtt < SimDuration::zero()) invalid_profile(*this, "min_rtt must be >= 0");
  if (queue_delay <= SimDuration::zero()) invalid_profile(*this, "queue_delay must be > 0");
  try {
    impairments.validate();
    downlink_schedule.validate();
  } catch (const std::invalid_argument& e) {
    invalid_profile(*this, e.what());
  }
}

std::uint64_t NetworkProfile::uplink_queue_bytes() const {
  // Access uplinks are notoriously over-buffered (modem bufferbloat); the
  // ms-sized droptail models the *downlink* bottleneck the paper tunes.
  // Floor the uplink buffer at 32 kB so request/handshake fan-out is not
  // dropped by an unrealistically tiny 5-packet queue.
  return std::max<std::uint64_t>(queue_bytes(uplink, queue_delay), 32 * 1024);
}

std::uint64_t NetworkProfile::downlink_queue_bytes() const {
  return queue_bytes(downlink, queue_delay);
}

std::uint64_t NetworkProfile::downlink_bdp_bytes() const {
  return std::max<std::uint64_t>(bdp_bytes(downlink, min_rtt), 4 * kMtuBytes);
}

NetworkProfile dsl_profile() {
  return NetworkProfile{
      .kind = NetworkKind::kDsl,
      .name = "DSL",
      .uplink = DataRate::megabits_per_second(5.0),
      .downlink = DataRate::megabits_per_second(25.0),
      .min_rtt = milliseconds(24),
      .loss_rate = 0.0,
      .queue_delay = milliseconds(12),
  };
}

NetworkProfile lte_profile() {
  return NetworkProfile{
      .kind = NetworkKind::kLte,
      .name = "LTE",
      .uplink = DataRate::megabits_per_second(2.8),
      .downlink = DataRate::megabits_per_second(10.5),
      .min_rtt = milliseconds(74),
      .loss_rate = 0.0,
      .queue_delay = milliseconds(200),
  };
}

NetworkProfile da2gc_profile() {
  return NetworkProfile{
      .kind = NetworkKind::kDa2gc,
      .name = "DA2GC",
      .uplink = DataRate::megabits_per_second(0.468),
      .downlink = DataRate::megabits_per_second(0.468),
      .min_rtt = milliseconds(262),
      .loss_rate = 0.033,
      .queue_delay = milliseconds(200),
  };
}

NetworkProfile mss_profile() {
  return NetworkProfile{
      .kind = NetworkKind::kMss,
      .name = "MSS",
      .uplink = DataRate::megabits_per_second(1.89),
      .downlink = DataRate::megabits_per_second(1.89),
      .min_rtt = milliseconds(760),
      .loss_rate = 0.06,
      .queue_delay = milliseconds(200),
  };
}

void LinkConditions::apply(NetworkProfile& profile) const {
  if (link_trace == RateSchedule::Kind::kLteTrace) {
    profile.downlink_schedule = RateSchedule::lte_trace(profile.downlink, link_trace_seed);
  } else if (link_trace == RateSchedule::Kind::kWifiTrace) {
    profile.downlink_schedule = RateSchedule::wifi_trace(profile.downlink, link_trace_seed);
  } else if (link_trace == RateSchedule::Kind::kSteps) {
    throw std::invalid_argument(
        "link conditions: explicit step schedules cannot be derived per profile; "
        "use lte or wifi traces");
  }
  if (!policer_rate.is_zero()) {
    profile.impairments.policer_rate = policer_rate;
    profile.impairments.policer_burst_bytes = policer_burst_bytes;
  }
  profile.validate();
}

std::string LinkConditions::token() const {
  return std::string(to_string(link_trace)) + ' ' + std::to_string(link_trace_seed) +
         ' ' + std::to_string(policer_rate.bps()) + ' ' +
         std::to_string(policer_burst_bytes);
}

namespace {

/// Runs once per process, behind all_profiles' first-use guard. Out of line
/// and cold, so hot-path callers of profile_for() carry only the guard.
QPERC_COLD_PATH std::vector<NetworkProfile> build_all_profiles() {
  return {dsl_profile(), lte_profile(), da2gc_profile(), mss_profile()};
}

}  // namespace

const std::vector<NetworkProfile>& all_profiles() {
  static const std::vector<NetworkProfile> profiles = build_all_profiles();
  return profiles;
}

const NetworkProfile& profile_for(NetworkKind kind) {
  for (const auto& profile : all_profiles()) {
    if (profile.kind == kind) return profile;
  }
  throw std::invalid_argument("unknown network kind");
}

}  // namespace qperc::net
