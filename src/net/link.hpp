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
// Serialization is arithmetic: send() derives each packet's completion time
// from the busy_until_ clock, decides its fate there and then, and records
// the completion so the queue-occupancy decrement can be applied lazily. No
// event fires per serialization; only deliveries are scheduled. With a
// RateSchedule installed serialize_end() integrates capacity piecewise
// across rate boundaries, so a rate change mid-backlog re-derives the busy
// clock byte-accurately; a disabled schedule takes the original
// single-multiply path and is bit-exact with the pre-schedule link.
//
// The simulator's trace sink is the one way to watch packets on the wire.
// Enqueue and queue-full drops are reported at send time, deliveries from
// the delivery event, and every other fate (loss, outage, burst loss,
// policing, reordering, duplication) from a notify-only event at the
// serialization end that touches no link state. Attaching or detaching a
// sink therefore cannot change any result.
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

class Link {
 public:
  // Same small-buffer callable vocabulary as Simulator::Callback: a delivery
  // hook captures at most a couple of pointers, so installing and invoking
  // one never allocates.
  using DeliverFn = SmallFunction<void(Packet)>;

  /// `queue_capacity_bytes` bounds the droptail queue (counting the packet
  /// being serialized, which frees its bytes when it finishes). `loss_rate` is applied per packet after the
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

  /// Direction tag carried in the `value` field of this link's trace events
  /// (0 = uplink, 1 = downlink); set by the owning EmulatedNetwork.
  void set_trace_direction(std::uint64_t direction) noexcept { trace_direction_ = direction; }

  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  /// Bytes queued or serializing as of now(). The decrement for a finished
  /// serialization is applied lazily, so this sums the not-yet-drained
  /// completions on the fly.
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
  /// A serialization accounted for arithmetically whose queue-occupancy
  /// decrement has not been applied yet.
  struct PendingDone {
    SimTime done{0};
    std::uint64_t wire_bytes = 0;
  };

  /// Applies the queue-occupancy decrements for serializations that finished
  /// at or before now() (the accessor above uses the same rule).
  void drain_completed();
  /// When a serialization starting at `start` finishes. Without a schedule:
  /// one multiply at the fixed rate (bit-exact with the pre-schedule link).
  /// With one: piecewise integration across the schedule's rate boundaries,
  /// so a step mid-packet stretches (or shrinks) the tail of the packet at
  /// the new rate, byte-accurately.
  [[nodiscard]] SimTime serialize_end(SimTime start, std::uint64_t wire_bytes) const;
  /// Refills the policer bucket up to `done` and consumes or drops. False
  /// (never polices) when the policer is disabled; no RNG draws either way.
  bool policed(const Packet& packet, SimTime done);
  /// Runs the loss/impairment decision chain for a packet whose serialization
  /// ends at `done`, scheduling delivery events as appropriate. RNG draws
  /// happen in serialization (FIFO = send) order.
  void decide_fate(const Packet& packet, SimTime done);
  /// Reports a fate (drop, reorder, duplicate) decided at send time for
  /// serialization end `done` to an attached trace sink: from a notify-only
  /// event at `done` that touches no link state, so tracing cannot perturb
  /// the link, or at once when `done` is now.
  void report_fate(trace::EventType type, const Packet& packet, SimTime done,
                   std::uint64_t id = 0);
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
  std::uint64_t trace_direction_ = 0;
  LinkImpairments impairments_{};
  bool ge_bad_ = false;  // Gilbert–Elliott chain state
  RateSchedule schedule_{};
  /// Token-bucket policer state: fractional tokens (bytes) and the time the
  /// bucket was last refilled. decide_fate() sees packets in serialization
  /// order, so refills advance monotonically.
  double policer_tokens_ = 0.0;
  SimTime policer_refilled_{0};

  void notify(trace::EventType type, const Packet& packet, std::uint64_t id = 0) {
    if (simulator_.trace() != nullptr) {
      simulator_.trace_event(type, trace::Endpoint::kNone,
                             static_cast<std::uint64_t>(packet.flow), id, packet.wire_bytes,
                             trace_direction_);
    }
  }

  std::uint64_t queued_bytes_ = 0;
  /// When the serializer finishes its current backlog.
  SimTime busy_until_{0};
  /// Serializations whose queued_bytes_ decrement is still pending; grows to
  /// the backlog's high-water mark, then its slab is reused.
  RingBuffer<PendingDone> completions_;
  LinkStats stats_;
};

}  // namespace qperc::net
