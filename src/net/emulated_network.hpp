// The testbed topology: client endpoints behind an emulated access network
// talking to many origin servers, all sharing the same bottleneck pair of
// links — exactly Mahimahi's shape (every replayed origin lives behind the
// one emulated interface).
//
// By default there is a single directly-attached endpoint (the browser) and
// the topology is identical to the paper's. With a ContentionConfig the
// network grows into a dumbbell: each cross-traffic endpoint gets its own
// access-link pair (faster than the bottleneck, so it shapes RTT without
// becoming the constraint) feeding the shared droptail bottleneck where the
// fairness fight happens. The contention-disabled path performs zero extra
// RNG draws and zero extra branches with observable effect, so single-flow
// goldens stay bit-exact.
#pragma once

#include <cstdint>
#include <utility>

#include "net/contention.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/profile.hpp"
#include "sim/simulator.hpp"
#include "util/arena.hpp"
#include "util/function.hpp"
#include "util/rng.hpp"

namespace qperc::net {

class EmulatedNetwork {
 public:
  /// Flow handlers share Link::DeliverFn's small-buffer callable type, so
  /// the sim layer has a single callable vocabulary (see util/function.hpp).
  using Handler = Link::DeliverFn;

  /// Identifies one client-side attachment point. 0 is the directly-attached
  /// default endpoint (the browser); ids from add_endpoint() sit behind a
  /// dedicated access-link pair.
  using EndpointId = std::uint32_t;
  static constexpr EndpointId kDirectEndpoint = 0;

  EmulatedNetwork(sim::Simulator& simulator, const NetworkProfile& profile, Rng rng,
                  const ContentionConfig& contention = {});
  ~EmulatedNetwork();
  EmulatedNetwork(const EmulatedNetwork&) = delete;
  EmulatedNetwork& operator=(const EmulatedNetwork&) = delete;

  /// Adds a client endpoint behind a fresh access-link pair (rate =
  /// contention.access_rate_scale x the bottleneck direction's rate; one-way
  /// delay contention.access_delay). Storage comes from the trial arena.
  [[nodiscard]] EndpointId add_endpoint();
  /// Flows allocated after this call attach to `endpoint` (until changed).
  /// The trial layer brackets each cross-traffic session's construction with
  /// this, because connections allocate their flow id in their constructor.
  void set_flow_endpoint(EndpointId endpoint);

  /// Registers the client-side handler for one flow; downlink packets of that
  /// flow are demultiplexed to it.
  void register_client_flow(FlowId flow, Handler handler);
  void unregister_client_flow(FlowId flow);
  /// Registers the server-side handler for one flow; uplink packets of that
  /// flow are demultiplexed to it. (Origin servers are a higher-level concept;
  /// `Packet::dest_server` is retained for accounting and per-origin delays.)
  void register_server_flow(FlowId flow, Handler handler);
  void unregister_server_flow(FlowId flow);

  /// Sends a packet from the client towards `packet.dest_server`; packets of
  /// flows behind an access endpoint traverse their access uplink first.
  void client_send(Packet packet);
  /// Sends a packet from a server back to the client of `packet.flow`; the
  /// shared bottleneck downlink comes first, then the flow's access downlink.
  void server_send(Packet packet);

  [[nodiscard]] const LinkStats& uplink_stats() const { return uplink_.stats(); }
  [[nodiscard]] const LinkStats& downlink_stats() const { return downlink_.stats(); }
  /// Direct link access (impairments, schedules, stats). These are the
  /// shared bottleneck links; access links are internal to their endpoints.
  [[nodiscard]] Link& uplink() { return uplink_; }
  [[nodiscard]] Link& downlink() { return downlink_; }
  [[nodiscard]] const NetworkProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] FlowId allocate_flow_id() {
    const FlowId flow{next_flow_id_++};
    if (current_endpoint_ != kDirectEndpoint) slot(flow).endpoint = current_endpoint_;
    return flow;
  }
  [[nodiscard]] std::uint32_t endpoint_count() const noexcept {
    return static_cast<std::uint32_t>(endpoints_.size());
  }

 private:
  /// One cross-traffic attachment: an access-link pair between the endpoint
  /// and the shared bottleneck. Arena-placed (the pair dies with the trial);
  /// ~EmulatedNetwork runs the destructors explicitly because Arena::reset()
  /// never does.
  struct Endpoint {
    Endpoint(sim::Simulator& simulator, const ContentionConfig& contention,
             const NetworkProfile& profile, Rng up_rng, Rng down_rng,
             EmulatedNetwork* network);
    Link up;    // endpoint -> bottleneck uplink
    Link down;  // bottleneck downlink -> endpoint
  };

  /// Per-flow routing state, indexed by flow id. Handlers are arena-placed
  /// and pointed to, not stored inline: a handler may register a new flow
  /// while it runs (a browser opening a connection from a delivery), and the
  /// growth that follows must not move the handler out from under itself.
  struct FlowSlot {
    Handler* client = nullptr;  // null or empty = unregistered
    Handler* server = nullptr;
    EndpointId endpoint = kDirectEndpoint;
  };

  /// The slot of `flow`, growing the table to reach it.
  FlowSlot& slot(FlowId flow);
  /// The slot of `flow`, or nullptr when the id is beyond the table.
  [[nodiscard]] const FlowSlot* find_slot(FlowId flow) const noexcept {
    const auto index = static_cast<std::uint64_t>(flow);
    return index < flows_.size() ? &flows_[index] : nullptr;
  }
  /// Installs `handler` in `*target`, placing a Handler in the arena on
  /// first use.
  void install(Handler*& target, Handler handler);
  /// The endpoint `flow` is attached to (kDirectEndpoint when unknown).
  [[nodiscard]] EndpointId endpoint_of(FlowId flow) const noexcept {
    const FlowSlot* found = find_slot(flow);
    return found != nullptr ? found->endpoint : kDirectEndpoint;
  }
  static void dispatch(Handler* handler, Packet&& packet) {
    if (handler != nullptr && *handler) (*handler)(std::move(packet));
  }

  void deliver_uplink(Packet packet);
  void deliver_downlink(Packet packet);
  void deliver_to_client(Packet packet);

  sim::Simulator& simulator_;
  NetworkProfile profile_;
  ContentionConfig contention_;
  // Both bottleneck links live inline (no per-trial heap traffic); their
  // delivery hooks capture `this` only and fire well after construction.
  Link uplink_;
  Link downlink_;
  /// Flow ids come from allocate_flow_id() (dense, from 1), so the table is
  /// a flat arena array; slot 0 is never a flow. Endpoints stay
  /// kDirectEndpoint whenever contention is disabled, so the single-flow
  /// path never routes differently.
  ArenaVec<FlowSlot> flows_;
  /// Arena-placed access-link pairs, 1-based via EndpointId (slot i-1).
  ArenaVec<Endpoint*> endpoints_;
  /// Forked from the trial network stream only when contention is enabled —
  /// the disabled path must not consume or derive any extra randomness.
  Rng access_rng_;
  EndpointId current_endpoint_ = kDirectEndpoint;
  std::uint64_t next_flow_id_ = 1;
};

}  // namespace qperc::net
