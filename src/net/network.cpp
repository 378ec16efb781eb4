#include "net/network.hpp"

#include <cassert>

#include "util/log.hpp"

namespace starfish::net {

std::string NetAddr::to_string() const {
  return "host" + std::to_string(host) + ":" + std::to_string(port);
}

// --------------------------------------------------------------- Network ---

Network::Network(sim::Engine& engine) : engine_(engine) {}

sim::HostPtr Network::add_host(std::string name, const sim::Machine& machine,
                               sim::DiskParams disk) {
  auto h = std::make_shared<sim::Host>(engine_, static_cast<sim::HostId>(hosts_.size()),
                                       std::move(name), machine, disk);
  hosts_.push_back(h);
  per_host_.push_back(std::make_unique<HostNet>());
  faults_.on_host_added(hosts_.size());
  return h;
}

sim::HostPtr Network::host(sim::HostId id) const {
  assert(id < hosts_.size());
  return hosts_[id];
}

bool Network::host_alive(sim::HostId id) const {
  return id < hosts_.size() && hosts_[id]->alive();
}

void Network::note_packet(const Packet& packet, sim::Duration latency, bool delivered) {
  obs::Hub* hub = engine_.obs();
  if (hub == nullptr) return;
  HostNet& hn = per_host(packet.src.host);
  if (hub != hn.obs_hub) {
    hn.obs_hub = hub;
    hn.obs_packets = &hub->metrics.counter("net.packets_sent");
    hn.obs_bytes = &hub->metrics.counter("net.bytes_sent");
    hn.obs_links.clear();
  }
  hn.obs_packets->add(1);
  hn.obs_bytes->add(packet.payload.size());
  // Loopback and dropped packets have no meaningful wire latency.
  if (!delivered || packet.src.host == packet.dst.host) return;
  auto [it, inserted] = hn.obs_links.try_emplace(packet.dst.host, nullptr);
  if (inserted) {
    it->second = &hub->metrics.histogram("net.link.host" + std::to_string(packet.src.host) +
                                         "->host" + std::to_string(packet.dst.host) +
                                         ".latency_ns");
  }
  it->second->record(static_cast<uint64_t>(latency));
}

void Network::transmit(TransportKind kind, Packet packet) {
  const TransportModel& model = model_for(kind);
  sim::Duration delay;
  if (packet.src.host == packet.dst.host) {
    delay = kLoopbackOneWay +
            sim::seconds(static_cast<double>(packet.payload.size()) /
                         (kLoopbackBandwidthMbS * 1e6));
  } else {
    delay = model.one_way_fixed() - model.propagation + model.wire_time(packet.payload.size());
  }
  bool duplicate = false;
  if (faults_.enabled()) {
    const auto verdict = faults_.datagram_verdict(packet, kind);
    if (verdict.drop) {
      ++packets_sent_;  // the wire lost it
      note_packet(packet, 0, /*delivered=*/false);
      return;
    }
    delay += verdict.extra;
    duplicate = verdict.duplicate;
  }
  if (packet.dst.host >= hosts_.size()) {
    // No such host: the datagram went on the wire and nothing can receive it.
    ++packets_sent_;
    note_packet(packet, 0, /*delivered=*/false);
    return;
  }
  // FIFO per (src, dst) pair: a short message must not overtake a long one
  // sent earlier on the same pair — both TCP streams and BIP channels
  // deliver in order, and the gcs flush protocol relies on it. Injected
  // extra latency lands before this clamp, so faults never reorder a pair.
  HostNet& src = per_host(packet.src.host);
  const sim::Time now = engine_.now();
  sim::Time& last = src.last_delivery[{packet.src, packet.dst}];
  const sim::Time arrival = std::max(now + delay, last + 1);
  last = arrival;
  ++packets_sent_;
  note_packet(packet, arrival - now, /*delivered=*/true);
  const sim::NodeId dst_node = hosts_[packet.dst.host]->node();
  Packet second;
  if (duplicate) second = packet;
  engine_.schedule_on(dst_node, arrival - now, [this, packet = std::move(packet)]() mutable {
    deliver_packet(std::move(packet));
  });
  if (duplicate) {
    const sim::Time dup_arrival = last + 1;
    last = dup_arrival;
    ++packets_sent_;
    note_packet(second, dup_arrival - now, /*delivered=*/true);
    engine_.schedule_on(dst_node, dup_arrival - now,
                        [this, packet = std::move(second)]() mutable {
      deliver_packet(std::move(packet));
    });
  }
}

void Network::deliver_packet(Packet packet) {
  if (!host_alive(packet.dst.host) || !host_alive(packet.src.host)) return;
  HostNet& hn = per_host(packet.dst.host);
  auto it = hn.bindings.find(packet.dst.port);
  if (it == hn.bindings.end()) return;  // nothing bound: datagram dropped
  it->second->inbox_.send(std::move(packet));
}

void Network::unbind(NetAddr addr) { per_host(addr.host).bindings.erase(addr.port); }
void Network::unlisten(NetAddr addr) { per_host(addr.host).listeners.erase(addr.port); }

DatagramEndpointPtr Network::bind(sim::HostId host, Port port, TransportKind kind) {
  NetAddr addr{host, port};
  HostNet& hn = per_host(host);
  assert(hn.bindings.find(port) == hn.bindings.end() && "port already bound");
  auto ep = DatagramEndpointPtr(new DatagramEndpoint(*this, addr, kind));
  hn.bindings[port] = ep.get();
  return ep;
}

DatagramEndpointPtr Network::bind_auto(sim::HostId host, TransportKind kind) {
  return bind(host, per_host(host).next_auto_port++, kind);
}

// ------------------------------------------------------ DatagramEndpoint ---

DatagramEndpoint::DatagramEndpoint(Network& net, NetAddr addr, TransportKind kind)
    : net_(net), addr_(addr), kind_(kind), inbox_(net.engine()) {}

DatagramEndpoint::~DatagramEndpoint() { close(); }

bool DatagramEndpoint::send(NetAddr dst, util::SharedBytes payload) {
  return send_raw(dst, std::move(payload));
}

bool DatagramEndpoint::send_raw(NetAddr dst, util::SharedBytes payload) {
  if (inbox_.closed() || !net_.host_alive(addr_.host)) return false;
  net_.transmit(kind_, Packet{addr_, dst, std::move(payload)});
  return true;
}

void DatagramEndpoint::close() {
  if (!inbox_.closed()) {
    inbox_.close();
    net_.unbind(addr_);
  }
}

// ------------------------------------------------------------ Connection ---

struct Connection::State {
  State(sim::Engine& eng, TransportKind k, sim::HostId h0, sim::HostId h1, sim::NodeId n0,
        sim::NodeId n1)
      : kind(k),
        hosts{h0, h1},
        nodes{n0, n1},
        inbox{sim::Channel<util::SharedBytes>(eng), sim::Channel<util::SharedBytes>(eng)} {}
  TransportKind kind;
  sim::HostId hosts[2];  // hosts[s] is side s's endpoint
  sim::NodeId nodes[2];  // cached engine nodes of hosts[]
  sim::Channel<util::SharedBytes> inbox[2];  // inbox[s] is read by side s
  sim::Time last_arrival[2] = {0, 0};  // latest scheduled delivery per inbox
  /// Side s stops sending once set: its own close()/reset, or the peer's
  /// FIN/RST arrived.
  bool closed_by[2] = {false, false};
  /// The server host registered the connection (SYN arrival at t+1ow; the
  /// client reads it at t+2ow).
  bool accepted = false;
  bool crashed = false;  // host failure; in-flight is lost
};

Connection::Connection(Network& net, std::shared_ptr<State> state, sim::HostId local,
                       sim::HostId remote, int side)
    : net_(net), state_(std::move(state)), local_(local), remote_(remote), side_(side) {}

bool Connection::send(util::SharedBytes payload) {
  State& st = *state_;
  if (st.closed_by[side_] || st.crashed || !net_.host_alive(local_)) return false;
  const TransportModel& model = model_for(st.kind);
  sim::Duration delay =
      model.one_way_fixed() - model.propagation + model.wire_time(payload.size());
  auto state = state_;
  const int peer = 1 - side_;
  const sim::Time now = net_.engine().now();
  if (net_.faults().enabled()) {
    bool reset = false;
    const sim::Duration extra =
        net_.faults().stream_penalty(local_, remote_, st.kind, payload.size(), reset);
    if (reset) {
      // TCP across a partition: this side observes the reset now; the peer
      // sees the RST one one-way latency later (ordered after in-flight
      // deliveries), the soonest the break could physically reach it.
      st.closed_by[side_] = true;
      st.inbox[side_].close();
      const sim::Time rst_at =
          std::max(now + model.one_way_fixed(), st.last_arrival[peer] + 1);
      net_.engine().schedule_on(st.nodes[peer], rst_at - now, [state, peer] {
        state->closed_by[peer] = true;
        state->inbox[peer].close();
      });
      return false;
    }
    // Retransmission/jitter latency, clamped so frames never overtake each
    // other within one direction of the stream.
    const sim::Time arrival = std::max(now + delay + extra, st.last_arrival[peer] + 1);
    delay = arrival - now;
  }
  Network* net = &net_;
  sim::HostId remote = remote_;
  st.last_arrival[peer] = std::max(st.last_arrival[peer], now + delay);
  net_.engine().schedule_on(st.nodes[peer], delay,
                            [state, peer, net, remote, payload = std::move(payload)]() mutable {
    // Only a crash loses in-flight data; a graceful close drains it (the
    // channel drops the frame itself once the peer's inbox is closed).
    if (state->crashed || !net->host_alive(remote)) return;
    state->inbox[peer].send(std::move(payload));
  });
  return true;
}

sim::RecvResult<util::SharedBytes> Connection::recv(sim::Time deadline) {
  return state_->inbox[side_].recv(deadline);
}

std::optional<util::SharedBytes> Connection::try_recv() {
  return state_->inbox[side_].try_recv();
}

void Connection::close() {
  State& st = *state_;
  if (st.closed_by[side_] || st.crashed) return;
  st.closed_by[side_] = true;
  // Local side sees EOF now; the peer's FIN is ordered after every delivery
  // already on the wire (TCP stream ordering), so in-flight data drains.
  st.inbox[side_].close();
  auto state = state_;
  const int peer = 1 - side_;
  const sim::Time now = net_.engine().now();
  const sim::Time fin_at =
      std::max(now + model_for(st.kind).one_way_fixed(), st.last_arrival[peer] + 1);
  net_.engine().schedule_on(st.nodes[peer], fin_at - now, [state, peer] {
    state->closed_by[peer] = true;
    state->inbox[peer].close();
  });
}

bool Connection::broken() const { return state_->closed_by[side_] || state_->crashed; }

// -------------------------------------------------------------- Acceptor ---

Acceptor::Acceptor(Network& net, NetAddr addr, TransportKind kind)
    : net_(net), addr_(addr), kind_(kind), backlog_(net.engine()) {}

Acceptor::~Acceptor() { close(); }

void Acceptor::close() {
  if (!backlog_.closed()) {
    backlog_.close();
    net_.unlisten(addr_);
  }
}

AcceptorPtr Network::listen(sim::HostId host, Port port, TransportKind kind) {
  NetAddr addr{host, port};
  HostNet& hn = per_host(host);
  assert(hn.listeners.find(port) == hn.listeners.end() && "port already listening");
  auto acc = AcceptorPtr(new Acceptor(*this, addr, kind));
  hn.listeners[port] = acc.get();
  return acc;
}

ConnectionPtr Network::connect(sim::HostId from, NetAddr dst, TransportKind kind) {
  if (!host_alive(from) || !host_alive(dst.host)) return nullptr;
  const sim::Duration one_way = model_for(kind).one_way_fixed();
  if (faults_.enabled() && faults_.connect_blocked(from, dst.host)) {
    // Neither SYN nor SYN/ACK can cross an active partition: the caller
    // burns a handshake round trip and gets a connection timeout.
    engine_.sleep(2 * one_way);
    return nullptr;
  }
  auto state = std::make_shared<Connection::State>(engine_, kind, from, dst.host,
                                                   hosts_[from]->node(),
                                                   hosts_[dst.host]->node());
  per_host(from).conns.push_back(state);
  auto server_end = ConnectionPtr(new Connection(*this, state, dst.host, from, 1));
  auto client_end = ConnectionPtr(new Connection(*this, state, from, dst.host, 0));

  // The SYN is an event on the server host's node, one latency after the
  // call (a connect cannot see a listener the same instant it is created
  // on another host — real SYNs travel too).
  engine_.schedule_on(state->nodes[1], one_way, [this, dst, kind, state, server_end]() mutable {
    if (state->crashed || !host_alive(state->hosts[0]) || !host_alive(state->hosts[1])) return;
    HostNet& hn = per_host(dst.host);
    auto it = hn.listeners.find(dst.port);
    if (it == hn.listeners.end() || it->second->kind_ != kind) return;  // connection refused
    hn.conns.push_back(state);
    state->accepted = true;
    it->second->backlog_.send(std::move(server_end));
  });
  // SYN + SYN/ACK round trip before the caller may use the connection.
  engine_.sleep(2 * one_way);
  if (!state->accepted || state->crashed || state->closed_by[0] || !host_alive(from) ||
      !host_alive(dst.host)) {
    return nullptr;
  }
  return client_end;
}

void Network::crash_host(sim::HostId id) {
  assert(id < hosts_.size());
  hosts_[id]->crash();

  // Drop bindings and listeners on the dead host; close() mutates the maps,
  // so collect first.
  HostNet& hn = per_host(id);
  std::vector<DatagramEndpoint*> dead_eps;
  for (auto& [port, ep] : hn.bindings) dead_eps.push_back(ep);
  for (auto* ep : dead_eps) ep->close();
  std::vector<Acceptor*> dead_acc;
  for (auto& [port, acc] : hn.listeners) dead_acc.push_back(acc);
  for (auto* acc : dead_acc) acc->close();

  // Break every connection with an end on the dead host. A state is
  // registered under its client host and (once accepted) its server host,
  // so scanning every per-host list sees it; the mutations are idempotent.
  for (auto& hostnet : per_host_) {
    std::erase_if(hostnet->conns, [](const auto& w) { return w.expired(); });
    for (auto& weak : hostnet->conns) {
      auto st = weak.lock();
      if (!st) continue;
      if (st->hosts[0] == id || st->hosts[1] == id) {
        st->crashed = true;
        st->inbox[0].close();
        st->inbox[1].close();
      }
    }
  }

  // Fate-sharing state elsewhere (e.g. the replica checkpoint tier) learns
  // of the crash last, after the fabric state is consistent. Still inside
  // the serial phase: hooks may mutate cluster-wide shared state.
  for (const auto& hook : crash_hooks_) hook(id);
}

void Network::add_crash_hook(std::function<void(sim::HostId)> hook) {
  crash_hooks_.push_back(std::move(hook));
}

}  // namespace starfish::net
