// Per-packet delivery-rate estimation (the "bandwidth sampler" from the BBR
// design / draft-cheng-iccrg-delivery-rate-estimation), shared by the TCP and
// QUIC senders.
#pragma once

#include <cstdint>
#include <optional>

#include "util/time.hpp"
#include "util/units.hpp"

namespace qperc::cc {

/// A delivery-rate sample produced when a packet is acknowledged.
struct RateSample {
  DataRate delivery_rate;
  bool is_app_limited = false;
};

/// The connection's delivery clock as a packet left. The transport keeps it
/// in its own per-packet record (next to the send time and length it already
/// stores) and hands it back when that packet is acked or declared lost.
struct SendSnapshot {
  std::uint64_t delivered_at_send = 0;
  SimTime delivered_time_at_send{0};
  bool app_limited = false;
};

class BandwidthSampler {
 public:
  /// Advances the connection-wide clocks for a packet of `bytes` sent at
  /// `now` and returns its send-time snapshot.
  [[nodiscard]] SendSnapshot on_packet_sent(std::uint64_t bytes, SimTime now,
                                            std::uint64_t bytes_in_flight);

  /// Produces a rate sample for an acked packet: `sent` is the snapshot
  /// on_packet_sent returned for it, `sent_time` and `bytes` what was passed
  /// there. nullopt when the interval is empty. Each snapshot is handed back
  /// at most once, to exactly one of the ack/lost entry points.
  std::optional<RateSample> on_packet_acked(const SendSnapshot& sent, SimTime sent_time,
                                            std::uint64_t bytes, SimTime now);

  /// The byte/clock accounting of on_packet_acked without the rate
  /// arithmetic, for transports whose controller never reads delivery rates
  /// (see CongestionController::uses_delivery_rate). Returns exactly
  /// on_packet_acked's has_value() so callers can keep identical control
  /// flow.
  bool on_packet_acked_no_sample(const SendSnapshot& sent, SimTime sent_time,
                                 std::uint64_t bytes, SimTime now);

  /// Releases a lost packet's bytes from the in-flight sum.
  void on_packet_lost(std::uint64_t bytes);

  /// Marks the connection app-limited: rate samples from packets sent from
  /// now until delivery catches up must not raise the bandwidth estimate.
  void on_app_limited();

  [[nodiscard]] std::uint64_t total_bytes_delivered() const noexcept { return delivered_bytes_; }
  /// Bytes sent and not yet handed back through an ack or loss (for tests).
  [[nodiscard]] std::uint64_t in_flight_bytes() const noexcept { return in_flight_bytes_; }

 private:
  /// Shared ACK bookkeeping: releases the packet and advances the delivery
  /// clock.
  void ack_bookkeeping(std::uint64_t bytes, SimTime now);

  std::uint64_t delivered_bytes_ = 0;
  SimTime delivered_time_{0};
  std::uint64_t app_limited_until_delivered_ = 0;
  /// Running sum of the bytes of packets sent and not yet acked or lost, for
  /// on_app_limited.
  std::uint64_t in_flight_bytes_ = 0;
};

}  // namespace qperc::cc
