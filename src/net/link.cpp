#include "net/link.hpp"

#include <algorithm>
#include <utility>

namespace qperc::net {

Link::Link(sim::Simulator& simulator, DataRate rate, SimDuration propagation_delay,
           double loss_rate, std::uint64_t queue_capacity_bytes, Rng loss_rng,
           DeliverFn deliver)
    : simulator_(simulator),
      rate_(rate),
      propagation_delay_(propagation_delay),
      loss_rate_(loss_rate),
      queue_capacity_bytes_(queue_capacity_bytes),
      loss_rng_(loss_rng),
      deliver_(std::move(deliver)) {}

void Link::drain_completed() {
  // A completion landing at exactly this instant counts as done. Must agree
  // with the queued_bytes() accessor or a sender polling it could spin on a
  // capacity check that never passes.
  while (!completions_.empty() && completions_.front().done <= simulator_.now()) {
    queued_bytes_ -= completions_.front().wire_bytes;
    completions_.pop_front();
  }
}

void Link::send(Packet packet) {
  // Serialization is arithmetic on busy_until_: the dominant cost of a
  // page-load trial is event dispatch, and folding the per-packet
  // serialization-complete event into this arithmetic halves the event
  // count. Fates are decided here, in send (FIFO) order, which is the
  // serialization order the loss RNG is drawn in.
  ++stats_.packets_offered;
  drain_completed();
  if (queued_bytes_ + packet.wire_bytes > queue_capacity_bytes_) {
    ++stats_.drops_queue_full;
    notify(trace::EventType::kLinkDroppedQueueFull, packet);
    return;
  }
  queued_bytes_ += packet.wire_bytes;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);
  notify(trace::EventType::kLinkEnqueued, packet);
  const SimTime start = std::max(simulator_.now(), busy_until_);
  const SimTime done = serialize_end(start, packet.wire_bytes);
  busy_until_ = done;
  completions_.push_back(PendingDone{done, packet.wire_bytes});
  decide_fate(packet, done);
}

SimTime Link::serialize_end(SimTime start, std::uint64_t wire_bytes) const {
  if (!schedule_.enabled()) return start + rate_.transmission_time(wire_bytes);
  // Piecewise integration: serialize as much of the packet as the current
  // rate span allows, carry the remainder into the next span. The schedule's
  // rate floor (RateSchedule::kMinRateBps) bounds how many spans one packet
  // can straddle; the iteration guard below is pure paranoia.
  SimTime t = start;
  double remaining = static_cast<double>(wire_bytes);
  for (int guard = 0; guard < 4096; ++guard) {
    const DataRate rate = schedule_.rate_at(t);
    const SimTime boundary = schedule_.next_change_after(t);
    const SimDuration needed = from_seconds(remaining / rate.bytes_per_second_d());
    if (boundary == kNoTime || t + needed <= boundary) return t + needed;
    remaining -= rate.bytes_per_second_d() * to_seconds(boundary - t);
    if (remaining < 0.0) remaining = 0.0;
    t = boundary;
  }
  return t + from_seconds(remaining / schedule_.rate_at(t).bytes_per_second_d());
}

bool Link::policed(const Packet& packet, SimTime done) {
  if (!impairments_.policer_enabled()) return false;
  const double burst = static_cast<double>(impairments_.policer_burst_bytes);
  if (done > policer_refilled_) {
    const double refill = impairments_.policer_rate.bytes_per_second_d() *
                          to_seconds(done - policer_refilled_);
    policer_tokens_ = std::min(burst, policer_tokens_ + refill);
    policer_refilled_ = done;
  }
  const double bytes = static_cast<double>(packet.wire_bytes);
  if (policer_tokens_ < bytes) return true;
  policer_tokens_ -= bytes;
  return false;
}

bool Link::bursty_loss() {
  const GilbertElliott& ge = impairments_.gilbert_elliott;
  if (!ge.enabled()) return false;
  if (ge_bad_) {
    if (loss_rng_.bernoulli(ge.exit_bad)) ge_bad_ = false;
  } else {
    if (loss_rng_.bernoulli(ge.enter_bad)) ge_bad_ = true;
  }
  return loss_rng_.bernoulli(ge_bad_ ? ge.loss_bad : ge.loss_good);
}

SimDuration Link::jitter_draw() {
  return SimDuration{loss_rng_.uniform_int(impairments_.reorder_delay_min.count(),
                                           impairments_.reorder_delay_max.count())};
}

void Link::decide_fate(const Packet& packet, SimTime done) {
  // Random loss models the lossy wireless segment beyond the bottleneck; the
  // packet has already consumed its serialization slot. This stays the first
  // (and, with impairments off, only) draw so impairment-free profiles keep
  // their exact RNG stream and golden traces.
  if (loss_rng_.bernoulli(loss_rate_)) {
    ++stats_.drops_random_loss;
    report_fate(trace::EventType::kLinkDroppedRandomLoss, packet, done);
  } else if (impairments_.in_outage(done)) {
    ++stats_.drops_outage;
    report_fate(trace::EventType::kLinkDroppedOutage, packet, done);
  } else if (bursty_loss()) {
    ++stats_.drops_burst_loss;
    report_fate(trace::EventType::kLinkDroppedBurstLoss, packet, done);
  } else if (policed(packet, done)) {
    // Policing comes after the stochastic stages so a policed profile keeps
    // the same loss-RNG stream; the drop itself is deterministic. Dropping
    // post-serialization (no queueing signature) is exactly the carrier
    // token-bucket pathology BBR's lt_bw estimator detects.
    ++stats_.drops_policer;
    report_fate(trace::EventType::kLinkDroppedPolicer, packet, done);
  } else {
    SimDuration delay = propagation_delay_;
    if (impairments_.reordering_enabled() &&
        loss_rng_.bernoulli(impairments_.reorder_rate)) {
      const SimDuration extra = jitter_draw();
      delay += extra;
      ++stats_.reordered;
      report_fate(trace::EventType::kLinkReordered, packet, done,
                  static_cast<std::uint64_t>(extra.count()));
    }
    // The duplication draws come before either delivery is scheduled, so a
    // packet's fate events stay adjacent in the trace; scheduling draws no
    // randomness, so the RNG stream is unchanged by the ordering.
    const bool duplicated = impairments_.duplication_enabled() &&
                            loss_rng_.bernoulli(impairments_.duplicate_rate);
    // The copy trails the original; with no jitter window configured it
    // lands at the same instant but after the original in FIFO order.
    const SimDuration lag = duplicated && impairments_.reorder_delay_max > SimDuration::zero()
                                ? jitter_draw()
                                : SimDuration::zero();
    if (duplicated) {
      ++stats_.duplicates;
      report_fate(trace::EventType::kLinkDuplicated, packet, done);
    }
    schedule_delivery_at(packet, done + delay);
    if (duplicated) schedule_delivery_at(packet, done + delay + lag);
  }
}

void Link::report_fate(trace::EventType type, const Packet& packet, SimTime done,
                       std::uint64_t id) {
  if (simulator_.trace() == nullptr) return;
  if (done <= simulator_.now()) {
    // The packet serialized within the sending instant (a sub-nanosecond
    // transmission time, as on the zero-delay torture profile), so its fate
    // time is now: report it at once rather than after the events already
    // queued for this instant.
    notify(type, packet, id);
    return;
  }
  simulator_.schedule_at(done, [this, type, flow = packet.flow, bytes = packet.wire_bytes, id] {
    simulator_.trace_event(type, trace::Endpoint::kNone, static_cast<std::uint64_t>(flow), id,
                           bytes, trace_direction_);
  });
}

void Link::schedule_delivery_at(const Packet& packet, SimTime when) {
  simulator_.schedule_at(when, [this, packet]() mutable {
    ++stats_.packets_delivered;
    stats_.bytes_delivered += packet.wire_bytes;
    notify(trace::EventType::kLinkDelivered, packet);
    deliver_(std::move(packet));
  });
}

}  // namespace qperc::net
