// The benchmark's three workloads and what one run of each yields.
//
// Every workload drives a core::Cluster through its public API only, from
// one thread, with every ClusterOptions field at the code's default except
// the checkpoint backend. Host time is taken around the driver's own calls;
// virtual time and counts come from sim::Engine, the checkpoint store and
// the driver's native applications. See perfbench/README.md for why each
// workload exists and which layer metric should move which end-to-end one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace perfbench {

/// Host and virtual totals of the driver's spans around calls into one
/// layer's public API. Recorded only in traced runs.
class Spans {
 public:
  struct Total {
    uint64_t calls = 0;
    uint64_t host_ns = 0;
    int64_t virtual_ns = 0;
    uint64_t events = 0;  ///< engine events executed inside the span
  };

  /// Runs `fn` and charges its host time (and, given an engine, its virtual
  /// time and events) to `name`. A null Spans* just runs `fn`.
  template <typename F>
  static void time(Spans* spans, const char* name, const starfish::sim::Engine* engine, F&& fn) {
    if (spans == nullptr) {
      fn();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const int64_t v0 = engine != nullptr ? engine->now() : 0;
    const uint64_t e0 = engine != nullptr ? engine->events_executed() : 0;
    fn();
    Total& t = spans->totals[name];
    ++t.calls;
    t.host_ns += static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::steady_clock::now() - t0)
                                           .count());
    if (engine != nullptr) {
      t.virtual_ns += engine->now() - v0;
      t.events += engine->events_executed() - e0;
    }
  }

  std::map<std::string, Total> totals;
};

/// What one run of a workload yields. Host fields vary run to run; every
/// other field is a function of the seed alone.
struct Sample {
  double setup_s = 0;  ///< host: workload start -> every rank of the first job running
  double host_s = 0;   ///< host: the timed phase
  // --- virtual clock (ns) and counts: exact ---
  int64_t job_virtual_ns = 0;  ///< the timed phase, first rank start -> last rank end
  std::vector<int64_t> step_ns;       ///< one application step on one rank
  std::vector<int64_t> commit_ns;     ///< epoch begin -> commit
  std::vector<int64_t> recovery_ns;   ///< crash -> first commit past the pre-crash line
  std::vector<int64_t> launch_ns;     ///< submit -> phase kRunning, per job
  std::vector<int64_t> sendrecv_ns;   ///< halo exchange wait (traced runs)
  std::vector<int64_t> allreduce_ns;  ///< allreduce wait (traced runs)
  uint64_t attempted = 0;  ///< golden-checked ops
  uint64_t failed = 0;     ///< ops whose output missed the golden value
  uint64_t events = 0;     ///< engine events over the whole run
  uint64_t retained_images = 0;  ///< CheckpointStore::image_count() at the end

  /// FNV-1a over every exact field: equal for runs of equal behaviour.
  uint64_t fingerprint() const;
};

enum class Workload { kHalo, kCkptStream, kCrashRestart };

/// Parses a workload name; false when unknown.
bool parse_workload(const std::string& name, Workload& out);

/// One whole run: set-up, the timed phase, golden checks. When
/// `setup_only`, returns as soon as the first job's ranks all run (only
/// `setup_s` is meaningful then).
Sample run_workload(Workload w, uint64_t seed, bool setup_only, Spans* spans);

}  // namespace perfbench
