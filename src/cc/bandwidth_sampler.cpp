#include "cc/bandwidth_sampler.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace qperc::cc {

SendSnapshot BandwidthSampler::on_packet_sent(std::uint64_t bytes, SimTime now,
                                              std::uint64_t bytes_in_flight) {
  if (bytes_in_flight == 0) {
    // Restarting from idle: the delivery clock must not count the idle gap.
    delivered_time_ = now;
  }
  in_flight_bytes_ += bytes;
  return SendSnapshot{
      .delivered_at_send = delivered_bytes_,
      .delivered_time_at_send = delivered_time_,
      .app_limited = app_limited_until_delivered_ > delivered_bytes_,
  };
}

void BandwidthSampler::ack_bookkeeping(std::uint64_t bytes, SimTime now) {
  QPERC_DCHECK_GE(in_flight_bytes_, bytes);
  in_flight_bytes_ -= bytes;
  delivered_bytes_ += bytes;
  QPERC_DCHECK_GE(now, delivered_time_) << "delivery clock must be monotone";
  delivered_time_ = now;
}

std::optional<RateSample> BandwidthSampler::on_packet_acked(const SendSnapshot& sent,
                                                            SimTime sent_time,
                                                            std::uint64_t bytes, SimTime now) {
  ack_bookkeeping(bytes, now);

  // Rate over the ACK interval, guarded against division by ~zero: use the
  // longer of the ack elapsed and the send elapsed intervals (standard
  // delivery-rate estimation uses the max of both to be conservative).
  const SimDuration ack_elapsed = now - sent.delivered_time_at_send;
  const SimDuration send_elapsed = sent_time - sent.delivered_time_at_send;
  const SimDuration interval = std::max(ack_elapsed, send_elapsed);
  if (interval <= SimDuration::zero()) return std::nullopt;
  const std::uint64_t delivered_in_interval = delivered_bytes_ - sent.delivered_at_send;
  return RateSample{
      .delivery_rate = DataRate::from_bytes_and_duration(delivered_in_interval, interval),
      .is_app_limited = sent.app_limited,
  };
}

bool BandwidthSampler::on_packet_acked_no_sample(const SendSnapshot& sent, SimTime sent_time,
                                                 std::uint64_t bytes, SimTime now) {
  ack_bookkeeping(bytes, now);
  // Mirror on_packet_acked's sample condition without the division: callers
  // branch on "a sample existed" (it gates the controller's on_ack), so the
  // two entry points must agree exactly.
  const SimDuration ack_elapsed = now - sent.delivered_time_at_send;
  const SimDuration send_elapsed = sent_time - sent.delivered_time_at_send;
  return std::max(ack_elapsed, send_elapsed) > SimDuration::zero();
}

void BandwidthSampler::on_packet_lost(std::uint64_t bytes) {
  QPERC_DCHECK_GE(in_flight_bytes_, bytes);
  in_flight_bytes_ -= bytes;
}

void BandwidthSampler::on_app_limited() {
  app_limited_until_delivered_ = delivered_bytes_ + in_flight_bytes_;
}

}  // namespace qperc::cc
