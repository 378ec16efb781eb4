#include "net/faults.hpp"

#include <algorithm>

#include "net/network.hpp"

namespace starfish::net {

namespace {
/// A "dropped" stream frame is retransmitted, not lost; cap the modelled
/// consecutive-loss streak so a drop probability of 1.0 cannot stall the
/// simulation forever.
constexpr int kMaxStreamRetransmits = 16;

/// Weyl-sequence salt: distinct, well-mixed lane seeds from (seed, src).
uint64_t lane_seed(uint64_t engine_seed, size_t src) {
  return engine_seed ^ (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(src) + 1));
}
}  // namespace

void FaultInjector::on_host_added(size_t host_count) {
  while (lanes_.size() < host_count) {
    lanes_.emplace_back(lane_seed(engine_.seed(), lanes_.size()));
  }
}

void FaultInjector::partition(const std::vector<sim::HostId>& a,
                              const std::vector<sim::HostId>& b, bool symmetric) {
  for (sim::HostId x : a) {
    for (sim::HostId y : b) {
      if (x == y) continue;
      blocked_.insert({x, y});
      if (symmetric) blocked_.insert({y, x});
    }
  }
  refresh_enabled();
}

void FaultInjector::heal() {
  blocked_.clear();
  refresh_enabled();
}

void FaultInjector::clear() {
  default_ = LinkFaults{};
  for (auto& t : transport_) t.reset();
  links_.clear();
  blocked_.clear();
  filter_ = nullptr;
  for (Lane& ln : lanes_) ln.trace.clear();
  refresh_enabled();
}

void FaultInjector::refresh_enabled() {
  enabled_ = default_.any() || !links_.empty() || !blocked_.empty() || filter_ != nullptr;
  if (!enabled_) {
    for (const auto& t : transport_) {
      if (t && t->any()) enabled_ = true;
    }
  }
}

const FaultCounters& FaultInjector::counters() const {
  merged_counters_ = FaultCounters{};
  for (const Lane& ln : lanes_) {
    const FaultCounters& c = ln.counters;
    merged_counters_.datagrams_dropped += c.datagrams_dropped;
    merged_counters_.datagrams_duplicated += c.datagrams_duplicated;
    merged_counters_.datagrams_delayed += c.datagrams_delayed;
    merged_counters_.partition_drops += c.partition_drops;
    merged_counters_.stream_retransmits += c.stream_retransmits;
    merged_counters_.stream_resets += c.stream_resets;
    merged_counters_.connects_blocked += c.connects_blocked;
    merged_counters_.filter_drops += c.filter_drops;
  }
  return merged_counters_;
}

const std::vector<std::string>& FaultInjector::trace() const {
  // K-way merge of the per-lane (already time-ordered) streams, keyed by
  // (time, source host, per-lane index): a total order same-seed runs
  // reproduce bit-identically.
  struct Ref {
    sim::Time t;
    sim::HostId src;
    size_t idx;
  };
  std::vector<Ref> refs;
  size_t total = 0;
  for (const Lane& ln : lanes_) total += ln.trace.size();
  refs.reserve(total);
  for (sim::HostId src = 0; src < lanes_.size(); ++src) {
    for (size_t i = 0; i < lanes_[src].trace.size(); ++i) {
      refs.push_back({lanes_[src].trace[i].first, src, i});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.src != b.src) return a.src < b.src;
    return a.idx < b.idx;
  });
  merged_trace_.clear();
  merged_trace_.reserve(refs.size());
  for (const Ref& r : refs) merged_trace_.push_back(lanes_[r.src].trace[r.idx].second);
  return merged_trace_;
}

const LinkFaults& FaultInjector::faults_for(sim::HostId src, sim::HostId dst,
                                            TransportKind kind) const {
  auto it = links_.find({src, dst});
  if (it != links_.end()) return it->second;
  const auto& t = transport_[static_cast<size_t>(kind)];
  if (t) return *t;
  return default_;
}

void FaultInjector::note(Lane& ln, const char* what, sim::HostId src, sim::HostId dst,
                         uint64_t count) {
  const sim::Time now = engine_.now();
  ln.trace.emplace_back(now, std::to_string(now) + " " + what + " host" + std::to_string(src) +
                                 "->host" + std::to_string(dst));
  if (obs::Hub* hub = engine_.obs()) {
    // `what` is always a string literal, so its address identifies the
    // counter; resolving "net.fault.<what>" through the registry on every
    // faulted packet would allocate the name and take the registry lock.
    if (hub != ln.obs_hub) {
      ln.obs_hub = hub;
      ln.obs_counters.clear();
    }
    obs::Counter*& counter = ln.obs_counters[static_cast<const void*>(what)];
    if (counter == nullptr) counter = &hub->metrics.counter(std::string("net.fault.") + what);
    counter->add(count);
    if (hub->tracer.enabled()) {
      hub->tracer.instant(static_cast<uint64_t>(now), "fault",
                          std::string(what) + " ->host" + std::to_string(dst), src);
    }
  }
}

sim::Duration FaultInjector::latency_extra(Lane& ln, const LinkFaults& f, sim::HostId src,
                                           sim::HostId dst, const char* what) {
  sim::Duration extra = f.delay;
  if (f.jitter > 0) {
    extra += static_cast<sim::Duration>(ln.rng.below(static_cast<uint64_t>(f.jitter)));
  }
  if (extra > 0) {
    ++ln.counters.datagrams_delayed;
    note(ln, what, src, dst);
  }
  return extra;
}

FaultInjector::Verdict FaultInjector::datagram_verdict(const Packet& packet,
                                                       TransportKind kind) {
  Verdict v;
  const sim::HostId src = packet.src.host;
  const sim::HostId dst = packet.dst.host;
  if (src == dst) return v;  // loopback is exempt from all faults
  Lane& ln = lane(src);
  if (filter_ && filter_(packet, kind)) {
    v.drop = true;
    ++ln.counters.filter_drops;
    note(ln, "filter-drop", src, dst);
    return v;
  }
  if (link_blocked(src, dst)) {
    v.drop = true;
    ++ln.counters.partition_drops;
    note(ln, "partition-drop", src, dst);
    return v;
  }
  const LinkFaults& f = faults_for(src, dst, kind);
  if (!f.any()) return v;
  if (f.drop > 0 && ln.rng.chance(f.drop)) {
    v.drop = true;
    ++ln.counters.datagrams_dropped;
    note(ln, "drop", src, dst);
    return v;
  }
  if (f.duplicate > 0 && ln.rng.chance(f.duplicate)) {
    v.duplicate = true;
    ++ln.counters.datagrams_duplicated;
    note(ln, "duplicate", src, dst);
  }
  v.extra = latency_extra(ln, f, src, dst, "delay");
  return v;
}

sim::Duration FaultInjector::stream_penalty(sim::HostId src, sim::HostId dst,
                                            TransportKind kind, size_t bytes, bool& reset) {
  reset = false;
  if (src == dst) return 0;
  Lane& ln = lane(src);
  if (link_blocked(src, dst) || link_blocked(dst, src)) {
    // TCP across a partition: retransmissions exhaust and the connection
    // resets. In-flight data is lost, both ends observe a broken stream.
    reset = true;
    ++ln.counters.stream_resets;
    note(ln, "stream-reset", src, dst);
    return 0;
  }
  const LinkFaults& f = faults_for(src, dst, kind);
  if (!f.any()) return 0;
  sim::Duration extra = 0;
  if (f.drop > 0) {
    const TransportModel& model = model_for(kind);
    const sim::Duration resend = 2 * model.one_way_fixed() + model.wire_time(bytes);
    int streak = 0;
    while (streak < kMaxStreamRetransmits && ln.rng.chance(f.drop)) {
      extra += resend;
      ++streak;
    }
    if (streak > 0) {
      ln.counters.stream_retransmits += static_cast<uint64_t>(streak);
      note(ln, "stream-retransmit", src, dst, static_cast<uint64_t>(streak));
    }
  }
  extra += latency_extra(ln, f, src, dst, "stream-delay");
  return extra;
}

bool FaultInjector::connect_blocked(sim::HostId from, sim::HostId to) {
  if (link_blocked(from, to) || link_blocked(to, from)) {
    Lane& ln = lane(from);
    ++ln.counters.connects_blocked;
    note(ln, "connect-blocked", from, to);
    return true;
  }
  return false;
}

}  // namespace starfish::net
