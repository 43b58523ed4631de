#include "net/emulated_network.hpp"

#include <algorithm>
#include <new>
#include <utility>

namespace qperc::net {

namespace {

/// Access queues are sized like the bottleneck's (rate x queue delay) but
/// floored generously: the access link is provisioned above the bottleneck,
/// so its queue must never be the drop point.
[[nodiscard]] std::uint64_t access_queue_bytes(DataRate rate, SimDuration queue_delay) {
  return std::max<std::uint64_t>(rate.bytes_in(queue_delay), 64 * 1024);
}

}  // namespace

EmulatedNetwork::EmulatedNetwork(sim::Simulator& simulator, const NetworkProfile& profile,
                                 Rng rng, const ContentionConfig& contention)
    : simulator_(simulator),
      profile_(profile),
      contention_(contention),
      uplink_(simulator, profile.uplink, profile.min_rtt / 2, profile.loss_rate,
              profile.uplink_queue_bytes(), rng.fork("uplink-loss"),
              [this](Packet p) { deliver_uplink(std::move(p)); }),
      downlink_(simulator, profile.downlink, profile.min_rtt / 2, profile.loss_rate,
                profile.downlink_queue_bytes(), rng.fork("downlink-loss"),
                [this](Packet p) { deliver_downlink(std::move(p)); }),
      // The disabled path derives no extra randomness: fork("access") happens
      // only when contention is on (the placeholder Rng(0) is never drawn).
      access_rng_(contention.enabled() ? rng.fork("access") : Rng(0)) {
  uplink_.set_trace_direction(0);
  downlink_.set_trace_direction(1);
  if (profile.impairments.any()) {
    uplink_.set_impairments(profile.impairments);
    downlink_.set_impairments(profile.impairments);
  }
  // The schedule applies to the bottleneck downlink only: the uplink keeps
  // its fixed provisioned rate, matching the paper's downlink-bottleneck
  // testbed and the Mahimahi convention of tracing the downstream direction.
  if (profile.downlink_schedule.enabled()) {
    downlink_.set_schedule(profile.downlink_schedule);
  }
}

EmulatedNetwork::~EmulatedNetwork() {
  // Endpoints and handlers are arena-placed; the arena reclaims storage
  // without running destructors, so run them here (Link owns RingBuffer
  // slabs on the heap; a handler may own a heap-fallback callable).
  for (Endpoint* endpoint : endpoints_) endpoint->~Endpoint();
  for (const FlowSlot& flow : flows_) {
    if (flow.client != nullptr) flow.client->~Handler();
    if (flow.server != nullptr) flow.server->~Handler();
  }
}

EmulatedNetwork::Endpoint::Endpoint(sim::Simulator& simulator,
                                    const ContentionConfig& contention,
                                    const NetworkProfile& profile, Rng up_rng, Rng down_rng,
                                    EmulatedNetwork* network)
    : up(simulator, profile.uplink.scaled(contention.access_rate_scale),
         contention.access_delay, /*loss_rate=*/0.0,
         access_queue_bytes(profile.uplink.scaled(contention.access_rate_scale),
                            profile.queue_delay),
         std::move(up_rng), [network](Packet p) { network->uplink_.send(std::move(p)); }),
      down(simulator, profile.downlink.scaled(contention.access_rate_scale),
           contention.access_delay, /*loss_rate=*/0.0,
           access_queue_bytes(profile.downlink.scaled(contention.access_rate_scale),
                              profile.queue_delay),
           std::move(down_rng),
           [network](Packet p) { network->deliver_to_client(std::move(p)); }) {
  up.set_trace_direction(0);
  down.set_trace_direction(1);
}

EmulatedNetwork::EndpointId EmulatedNetwork::add_endpoint() {
  // Access links are clean (no random loss, no impairments): the shared
  // bottleneck is where loss and queueing happen, exactly like the dumbbell
  // topologies in the fairness literature.
  Arena& arena = simulator_.arena();
  const std::uint64_t index = endpoints_.size();
  auto* storage =
      static_cast<Endpoint*>(arena.allocate(sizeof(Endpoint), alignof(Endpoint)));
  ::new (storage) Endpoint(simulator_, contention_, profile_,
                           access_rng_.fork(index * 2), access_rng_.fork(index * 2 + 1),
                           this);
  endpoints_.push_back(arena, storage);
  return static_cast<EndpointId>(endpoints_.size());
}

void EmulatedNetwork::set_flow_endpoint(EndpointId endpoint) {
  current_endpoint_ = endpoint;
}

EmulatedNetwork::FlowSlot& EmulatedNetwork::slot(FlowId flow) {
  const auto index = static_cast<std::uint64_t>(flow);
  while (flows_.size() <= index) flows_.push_back(simulator_.arena(), FlowSlot{});
  return flows_[index];
}

void EmulatedNetwork::install(Handler*& target, Handler handler) {
  if (target == nullptr) {
    target = ::new (simulator_.arena().allocate(sizeof(Handler), alignof(Handler)))
        Handler(std::move(handler));
  } else {
    *target = std::move(handler);
  }
}

void EmulatedNetwork::register_client_flow(FlowId flow, Handler handler) {
  install(slot(flow).client, std::move(handler));
}

void EmulatedNetwork::unregister_client_flow(FlowId flow) {
  if (const FlowSlot* found = find_slot(flow); found != nullptr && found->client != nullptr) {
    *found->client = nullptr;
  }
}

void EmulatedNetwork::register_server_flow(FlowId flow, Handler handler) {
  install(slot(flow).server, std::move(handler));
}

void EmulatedNetwork::unregister_server_flow(FlowId flow) {
  if (const FlowSlot* found = find_slot(flow); found != nullptr && found->server != nullptr) {
    *found->server = nullptr;
  }
}

void EmulatedNetwork::client_send(Packet packet) {
  if (!endpoints_.empty()) {
    if (const EndpointId endpoint = endpoint_of(packet.flow); endpoint != kDirectEndpoint) {
      endpoints_[endpoint - 1]->up.send(std::move(packet));
      return;
    }
  }
  uplink_.send(std::move(packet));
}

void EmulatedNetwork::server_send(Packet packet) { downlink_.send(std::move(packet)); }

void EmulatedNetwork::deliver_uplink(Packet packet) {
  if (const FlowSlot* found = find_slot(packet.flow); found != nullptr) {
    dispatch(found->server, std::move(packet));
  }
}

void EmulatedNetwork::deliver_downlink(Packet packet) {
  if (!endpoints_.empty()) {
    if (const EndpointId endpoint = endpoint_of(packet.flow); endpoint != kDirectEndpoint) {
      endpoints_[endpoint - 1]->down.send(std::move(packet));
      return;
    }
  }
  deliver_to_client(std::move(packet));
}

void EmulatedNetwork::deliver_to_client(Packet packet) {
  if (const FlowSlot* found = find_slot(packet.flow); found != nullptr) {
    dispatch(found->client, std::move(packet));
  }
}

}  // namespace qperc::net
