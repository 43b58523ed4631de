// One direction of a TCP connection: the receiving half.
//
// Reassembles the byte stream, generates delayed/immediate ACKs with at most
// three SACK blocks (the TCP option-space limit that §4.3 contrasts with
// QUIC's large ACK ranges), and models the receive window: fixed 2xBDP when
// "tuned buffers" are on, Linux-DRS-style autotuning from 64 KiB otherwise.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/simulator.hpp"
#include "tcp/config.hpp"
#include "tcp/segment.hpp"
#include "util/arena.hpp"

namespace qperc::tcp {

class TcpReceiver {
 public:
  /// `send_ack_now` asks the connection to emit a bare ACK carrying
  /// current_ack(); `on_delivered(total)` reports in-order delivery progress
  /// to the application (HTTP layer).
  TcpReceiver(sim::Simulator& simulator, const TcpConfig& config,
              std::uint64_t rwnd_limit_bytes, SmallFunction<void()> send_ack_now,
              SmallFunction<void(std::uint64_t)> on_delivered);

  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

  void on_data(std::uint64_t seq, std::uint32_t payload_bytes);

  /// Snapshot of the acknowledgment fields for piggybacking on any outgoing
  /// segment (also marks pending delayed ACKs as satisfied).
  void fill_ack(TcpSegment& segment);

  [[nodiscard]] std::uint64_t delivered_bytes() const noexcept { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t advertised_window() const;
  [[nodiscard]] std::uint64_t rwnd_limit() const noexcept { return rwnd_limit_; }

  /// Identifies this receiver in trace events (set by the owning connection).
  void set_trace_context(std::uint64_t flow, trace::Endpoint endpoint) noexcept {
    trace_flow_ = flow;
    trace_endpoint_ = endpoint;
  }

 private:
  void schedule_ack(bool immediate);
  /// Scan-derived ooo_bytes_, for the invariant check.
  [[nodiscard]] std::uint64_t count_ooo_bytes() const;
  void autotune(std::uint64_t newly_delivered);

  sim::Simulator& simulator_;
  TcpConfig config_;
  SmallFunction<void()> send_ack_now_;
  SmallFunction<void(std::uint64_t)> on_delivered_;

  std::uint64_t trace_flow_ = 0;
  trace::Endpoint trace_endpoint_ = trace::Endpoint::kNone;

  std::uint64_t rcv_nxt_ = 0;
  /// Out-of-order ranges [start, end), non-overlapping, above rcv_nxt_.
  /// Arena-backed nodes: reassembly churn under loss stays heap-free.
  std::map<std::uint64_t, std::uint64_t, std::less<std::uint64_t>,
           ArenaAllocator<std::pair<const std::uint64_t, std::uint64_t>>>
      ooo_ranges_;
  /// Total bytes held in ooo_ranges_, kept by on_data's absorb and merge
  /// sites so advertised_window() does not walk the ranges on every ACK.
  std::uint64_t ooo_bytes_ = 0;
  /// Range starts ordered by update recency (most recent first) for RFC 2018
  /// SACK block selection.
  std::vector<std::uint64_t, ArenaAllocator<std::uint64_t>> recency_;

  std::uint64_t rwnd_limit_ = 0;   // set by the constructor
  bool autotuning_ = false;        // set by the constructor
  std::uint64_t autotune_delivered_marker_ = 0;

  std::uint32_t full_packets_since_ack_ = 0;
  sim::Timer delayed_ack_timer_;
};

}  // namespace qperc::tcp
