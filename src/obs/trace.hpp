// Virtual-time tracing: spans and instant events in a bounded ring buffer,
// exported as Chrome trace_event JSON (loadable in chrome://tracing and
// Perfetto; see EXPERIMENTS.md).
//
// Timestamps are the engine's virtual nanoseconds, never the wall clock, so
// same-seed runs export byte-identical traces. Hosts map to Chrome "pids"
// and fibers to "tids", which makes the per-workstation timeline the natural
// top-level grouping in the viewer.
//
// Every event carries a logical TraceOrder stamp — the (time, node, seq) key
// of the engine event that emitted it plus a per-event emission index —
// written by the engine before each dispatch. to_chrome_json() stable-sorts
// by that stamp. One engine stamps in dispatch order, so the sort rarely
// moves its records; when several engines share one hub (a bench running
// cluster after cluster), their records interleave by virtual time, and
// the benches' --trace output depends on that order.
//
// The tracer is compiled in everywhere but off by default: every record
// call is a single branch on `enabled()` until someone turns it on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace starfish::obs {

/// Logical position of the currently executing engine event; stamps trace
/// records so they export in deterministic order. `at/node/seq`
/// is the engine's total event key; `emission` counts records within one
/// event. Code running outside any engine event keeps the initial stamp
/// (at = -1), which sorts before every event — correct for setup-time
/// records, which are emitted before the first run().
struct TraceOrder {
  int64_t at = -1;
  uint32_t node = 0;
  uint64_t seq = 0;
  uint32_t emission = 0;

  friend bool operator<(const TraceOrder& a, const TraceOrder& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.node != b.node) return a.node < b.node;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.emission < b.emission;
  }
};

/// The current stamp. The engine writes it on every event dispatch, so the
/// accessor must be header-inline: an out-of-line call here is measurable on
/// the dispatch micro bench.
inline TraceOrder& trace_order() {
  static TraceOrder order;
  return order;
}

struct TraceEvent {
  enum class Phase : char {
    kBegin = 'B',
    kEnd = 'E',
    kComplete = 'X',  ///< span with explicit duration
    kInstant = 'i',
  };

  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;  ///< kComplete only
  Phase phase = Phase::kInstant;
  uint32_t host = 0;   ///< exported as pid
  uint64_t fiber = 0;  ///< exported as tid (0 = main context)
  std::string name;
  const char* category = "";  ///< must be a literal (stored unowned)
  TraceOrder order;           ///< logical emission order (see above)
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // All record calls are no-ops while disabled. `ts` is virtual nanoseconds.
  void begin(uint64_t ts, const char* category, std::string name, uint32_t host,
             uint64_t fiber = 0);
  void end(uint64_t ts, const char* category, std::string name, uint32_t host,
           uint64_t fiber = 0);
  void complete(uint64_t ts, uint64_t dur, const char* category, std::string name,
                uint32_t host, uint64_t fiber = 0);
  void instant(uint64_t ts, const char* category, std::string name, uint32_t host,
               uint64_t fiber = 0);

  /// Events currently retained (<= capacity; older events are overwritten).
  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t recorded() const;
  uint64_t dropped() const;

  /// Retained events in deterministic logical order (TraceOrder stamps;
  /// record order breaks ties, which only matters for records emitted
  /// outside engine events).
  std::vector<TraceEvent> snapshot() const;
  void clear();

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} with microsecond
  /// timestamps (ns precision kept via fractional digits).
  std::string to_chrome_json() const;
  /// Writes to_chrome_json() to `path`; false after perror on failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  void push(TraceEvent ev);

  bool enabled_ = false;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;  ///< overwrite cursor once the ring is full
  uint64_t recorded_ = 0;
};

}  // namespace starfish::obs
