// One-directional emulated link: droptail queue -> serialization at a fixed
// or scheduled rate -> propagation delay -> Bernoulli random loss -> optional
// impairments (Gilbert–Elliott bursty loss, timed outages, token-bucket
// policing, reordering jitter, duplication).
//
// This mirrors the Mahimahi link shells the paper's testbed is built from:
// a byte-accurate bottleneck with a queue sized in milliseconds (Table 2:
// 200 ms everywhere except DSL's 12 ms) plus an independent random-loss
// stage for the in-flight networks. The impairment stage (see
// net/impairments.hpp) extends that vocabulary to the pathologies Mahimahi
// could not emulate; with impairments disabled the link performs exactly the
// same RNG draws as before, so goldens stay bit-exact.
//
// With a RateSchedule installed the serializer's rate varies over time:
// serialize_end() integrates capacity piecewise across rate boundaries, so a
// rate change mid-backlog re-derives the busy clock byte-accurately. Both the
// arithmetic fast path and the event-driven observed path compute completion
// times through the same serialize_end() off the shared busy_until_ clock,
// which is what keeps the two paths equivalent under schedules (the PR 3
// fast/observed contract). A disabled schedule takes the original
// single-multiply path and is bit-exact with the pre-schedule link.
//
// Only an Observer selects the event-driven path. A trace sink rides the
// arithmetic path: enqueue and queue-full drops are notified at send time,
// deliveries from the delivery event, and every other fate (loss, outage,
// burst loss, policing, reordering, duplication) from a notify-only event
// at the serialization end that touches no link state. Attaching a sink
// therefore cannot change any result.
#pragma once

#include <cstdint>

#include "net/impairments.hpp"
#include "net/packet.hpp"
#include "net/rate_schedule.hpp"
#include "sim/simulator.hpp"
#include "util/function.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace qperc::net {

/// Counters exposed for tests and the Table-2 validation bench.
struct LinkStats {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t drops_random_loss = 0;
  std::uint64_t drops_queue_full = 0;
  std::uint64_t drops_burst_loss = 0;  // Gilbert–Elliott correlated loss
  std::uint64_t drops_outage = 0;      // packet hit a timed outage window
  std::uint64_t drops_policer = 0;     // token-bucket policer exhausted
  std::uint64_t duplicates = 0;        // extra copies scheduled for delivery
  std::uint64_t reordered = 0;         // packets given extra delay jitter
  std::uint64_t max_queue_bytes = 0;
};

/// Per-packet lifecycle events a Link can report to an observer.
enum class LinkEvent {
  kEnqueued,
  kDroppedQueueFull,
  kDroppedRandomLoss,
  kDelivered,
  kDroppedBurstLoss,
  kDroppedOutage,
  kDuplicated,
  kReordered,
  kDroppedPolicer,
};

[[nodiscard]] constexpr trace::EventType to_trace_event(LinkEvent event) noexcept {
  switch (event) {
    case LinkEvent::kEnqueued: return trace::EventType::kLinkEnqueued;
    case LinkEvent::kDroppedQueueFull: return trace::EventType::kLinkDroppedQueueFull;
    case LinkEvent::kDroppedRandomLoss: return trace::EventType::kLinkDroppedRandomLoss;
    case LinkEvent::kDelivered: return trace::EventType::kLinkDelivered;
    case LinkEvent::kDroppedBurstLoss: return trace::EventType::kLinkDroppedBurstLoss;
    case LinkEvent::kDroppedOutage: return trace::EventType::kLinkDroppedOutage;
    case LinkEvent::kDuplicated: return trace::EventType::kLinkDuplicated;
    case LinkEvent::kReordered: return trace::EventType::kLinkReordered;
    case LinkEvent::kDroppedPolicer: return trace::EventType::kLinkDroppedPolicer;
  }
  return trace::EventType::kLinkEnqueued;  // unreachable with valid input
}

class Link {
 public:
  // Same small-buffer callable vocabulary as Simulator::Callback: a delivery
  // hook captures at most a couple of pointers, so installing and invoking
  // one never allocates.
  using DeliverFn = SmallFunction<void(Packet)>;
  using Observer = SmallFunction<void(LinkEvent, const Packet&)>;

  /// `queue_capacity_bytes` bounds the droptail queue (excluding the packet
  /// currently being serialized). `loss_rate` is applied per packet after the
  /// queue, i.e. queued packets can still be lost "on the wire".
  Link(sim::Simulator& simulator, DataRate rate, SimDuration propagation_delay,
       double loss_rate, std::uint64_t queue_capacity_bytes, Rng loss_rng,
       DeliverFn deliver);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offers a packet to the link; it is queued, dropped (tail-drop), or lost.
  void send(Packet packet);

  /// Installs the impairment configuration (validated). Safe to call before
  /// any traffic; changing it mid-flight only affects future packets. The
  /// policer's token bucket starts full and refills from this instant.
  void set_impairments(const LinkImpairments& impairments) {
    impairments.validate();
    impairments_ = impairments;
    policer_tokens_ = static_cast<double>(impairments.policer_burst_bytes);
    policer_refilled_ = simulator_.now();
  }
  [[nodiscard]] const LinkImpairments& impairments() const noexcept { return impairments_; }

  /// Installs a time-varying serialization-rate schedule (validated). An
  /// enabled schedule overrides the constructor rate; pass a default
  /// RateSchedule to return to the fixed rate.
  void set_schedule(const RateSchedule& schedule) {
    schedule.validate();
    schedule_ = schedule;
  }
  [[nodiscard]] const RateSchedule& schedule() const noexcept { return schedule_; }

  /// Installs a per-packet observer (tracing); pass nullptr to remove.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Direction tag carried in the `value` field of this link's trace events
  /// (0 = uplink, 1 = downlink); set by the owning EmulatedNetwork.
  void set_trace_direction(std::uint64_t direction) noexcept { trace_direction_ = direction; }

  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  /// Bytes queued or serializing as of now(). On the arithmetic fast path the
  /// decrement for a finished serialization is applied lazily, so this sums
  /// the not-yet-drained completions on the fly.
  [[nodiscard]] std::uint64_t queued_bytes() const noexcept {
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < completions_.size(); ++i) {
      const PendingDone& c = completions_.at(i);
      if (c.done <= simulator_.now()) done += c.wire_bytes;
    }
    return queued_bytes_ - done;
  }
  [[nodiscard]] DataRate rate() const noexcept { return rate_; }
  [[nodiscard]] SimDuration propagation_delay() const noexcept { return propagation_delay_; }
  /// Droptail capacity (the fairness report pairs this with
  /// `stats().max_queue_bytes` to report peak occupancy).
  [[nodiscard]] std::uint64_t queue_capacity_bytes() const noexcept {
    return queue_capacity_bytes_;
  }

 private:
  /// A serialization the fast path has accounted for arithmetically but whose
  /// queue-occupancy decrement has not been applied yet.
  struct PendingDone {
    SimTime done{0};
    std::uint64_t wire_bytes = 0;
  };

  void send_fast(Packet&& packet);
  void send_traced(Packet&& packet);
  /// Applies the queue-occupancy decrements for fast-path serializations that
  /// finished at or before now() (the accessor above uses the same rule).
  void drain_completed();
  /// When a serialization starting at `start` finishes. Without a schedule:
  /// one multiply at the fixed rate (bit-exact with the pre-schedule link).
  /// With one: piecewise integration across the schedule's rate boundaries,
  /// so a step mid-packet stretches (or shrinks) the tail of the packet at
  /// the new rate, byte-accurately. Both serialization paths call this off
  /// the shared busy clock, which keeps them equivalent under schedules.
  [[nodiscard]] SimTime serialize_end(SimTime start, std::uint64_t wire_bytes) const;
  /// Refills the policer bucket up to `done` and consumes or drops. False
  /// (never polices) when the policer is disabled; no RNG draws either way.
  bool policed(const Packet& packet, SimTime done);
  /// Runs the loss/impairment decision chain for a packet whose serialization
  /// ends at `done`, scheduling delivery events as appropriate. RNG draw
  /// order is the serialization (FIFO) order on both paths, so the two paths
  /// consume an identical stream.
  void decide_fate(const Packet& packet, SimTime done);
  /// Notifies a fate (drop, reorder, duplicate) decided for serialization
  /// end `done`: directly when `done` is now (the event-driven path), else,
  /// with a trace sink attached, from a notify-only event at `done` that
  /// touches no link state — tracing rides the arithmetic path without
  /// perturbing it.
  void report_fate(LinkEvent event, const Packet& packet, SimTime done,
                   std::uint64_t id = 0);
  void start_serialization();
  void schedule_delivery_at(const Packet& packet, SimTime when);
  /// Advances the Gilbert–Elliott chain one step and draws the state's loss
  /// probability. No draws at all while the model is disabled.
  bool bursty_loss();
  /// Uniform draw from the configured reorder jitter window.
  SimDuration jitter_draw();

  sim::Simulator& simulator_;
  DataRate rate_;
  SimDuration propagation_delay_{0};       // set by the constructor
  double loss_rate_ = 0.0;                 // set by the constructor
  std::uint64_t queue_capacity_bytes_ = 0; // set by the constructor
  Rng loss_rng_;
  DeliverFn deliver_;
  Observer observer_;
  std::uint64_t trace_direction_ = 0;
  LinkImpairments impairments_{};
  bool ge_bad_ = false;  // Gilbert–Elliott chain state
  RateSchedule schedule_{};
  /// Token-bucket policer state: fractional tokens (bytes) and the time the
  /// bucket was last refilled. decide_fate() sees packets in serialization
  /// order on both paths, so refills advance monotonically.
  double policer_tokens_ = 0.0;
  SimTime policer_refilled_{0};

  void notify(LinkEvent event, const Packet& packet, std::uint64_t id = 0) {
    if (observer_) observer_(event, packet);
    if (simulator_.trace() != nullptr) {
      simulator_.trace_event(to_trace_event(event), trace::Endpoint::kNone,
                             static_cast<std::uint64_t>(packet.flow), id,
                             packet.wire_bytes, trace_direction_);
    }
  }

  /// Droptail queue over a reused slab: once the ring has grown to the
  /// episode's high-water mark, enqueue/dequeue recycle the same packet
  /// descriptors instead of churning deque blocks. Only the observed (slow)
  /// path stores packets here; the fast path is purely arithmetic.
  RingBuffer<Packet> queue_;
  std::uint64_t queued_bytes_ = 0;
  bool serializing_ = false;
  /// When the serializer finishes its current backlog. Shared by both paths
  /// so a link stays byte-accurate across an observer attach/detach.
  SimTime busy_until_{0};
  /// Fast-path serializations whose queued_bytes_ decrement is still pending.
  RingBuffer<PendingDone> completions_;
  LinkStats stats_;
};

}  // namespace qperc::net
