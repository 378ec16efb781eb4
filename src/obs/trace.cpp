#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string_view>

namespace starfish::obs {

void Tracer::push(TraceEvent ev) {
  TraceOrder& ord = trace_order();
  ev.order = ord;
  ++ord.emission;
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  ring_[next_] = std::move(ev);
  next_ = (next_ + 1) % capacity_;
}

void Tracer::begin(uint64_t ts, const char* category, std::string name, uint32_t host,
                   uint64_t fiber) {
  if (!enabled_) return;
  push({ts, 0, TraceEvent::Phase::kBegin, host, fiber, std::move(name), category, {}});
}

void Tracer::end(uint64_t ts, const char* category, std::string name, uint32_t host,
                 uint64_t fiber) {
  if (!enabled_) return;
  push({ts, 0, TraceEvent::Phase::kEnd, host, fiber, std::move(name), category, {}});
}

void Tracer::complete(uint64_t ts, uint64_t dur, const char* category, std::string name,
                      uint32_t host, uint64_t fiber) {
  if (!enabled_) return;
  push({ts, dur, TraceEvent::Phase::kComplete, host, fiber, std::move(name), category, {}});
}

void Tracer::instant(uint64_t ts, const char* category, std::string name, uint32_t host,
                     uint64_t fiber) {
  if (!enabled_) return;
  push({ts, 0, TraceEvent::Phase::kInstant, host, fiber, std::move(name), category, {}});
}

size_t Tracer::size() const {
  return ring_.size();
}

uint64_t Tracer::recorded() const {
  return recorded_;
}

uint64_t Tracer::dropped() const {
  return recorded_ - ring_.size();
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Once full, `next_` points at the oldest retained event.
  const size_t start = ring_.size() < capacity_ ? 0 : next_;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  // Logical order. stable_sort: records with equal stamps (emitted outside
  // any engine event) keep record order.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.order < b.order; });
  return out;
}

void Tracer::clear() {
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
}

/// Chrome wants microseconds; emit "<us>.<ns remainder>" from integers so the
/// output never depends on floating-point formatting.
void append_us(std::string& out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, ns / 1000, ns % 1000);
  out += buf;
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : snapshot()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += " {\"name\": \"";
    append_escaped(out, ev.name);
    out += "\", \"cat\": \"";
    append_escaped(out, ev.category);
    out += "\", \"ph\": \"";
    out.push_back(static_cast<char>(ev.phase));
    out += "\", \"ts\": ";
    append_us(out, ev.ts_ns);
    if (ev.phase == TraceEvent::Phase::kComplete) {
      out += ", \"dur\": ";
      append_us(out, ev.dur_ns);
    }
    if (ev.phase == TraceEvent::Phase::kInstant) {
      out += ", \"s\": \"t\"";  // thread-scoped instant
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, ", \"pid\": %u, \"tid\": %" PRIu64 "}",
                  ev.host, ev.fiber);
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}";
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(("obs trace: " + path).c_str());
    return false;
  }
  const std::string json = to_chrome_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace starfish::obs
