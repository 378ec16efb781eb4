// End-to-end benchmark driver: runs one workload for a set time and prints
// its metrics, ending with one JSON line. perfbench/README.md describes the
// workloads and metrics.
//
//   perfbench --workload halo|ckpt_stream|crash_restart --seed N
//             --seconds S --trace 0 | --trace 1 --metrics-out FILE
//
// --trace 0 makes one untimed warm-up run, then repeats whole runs, each
// followed by set-up alone a few times, until S seconds have passed. It
// reports the end-to-end metrics: medians of the host times, the peak RSS
// and the exact virtual job time. --trace 1 alternates untraced and traced
// runs (an obs::Hub installed as the default hub, plus the driver's own
// spans), reports the per-layer metrics and writes the first traced run's
// registry to FILE. Every run's exact virtual figures must match the first
// run's, traced or not (DESIGN.md section 10).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "util/simd/simd.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace starfish;
using perfbench::Sample;
using perfbench::Spans;

// Set-up takes a few milliseconds, so it is repeated on its own after every
// whole run and reported as a median; spreading the repetitions over the
// whole measurement keeps a burst of load on a shared host from landing on
// all of them.
constexpr int kSetupsPerRun = 8;
// Whole runs in a --trace 0 process, at least, however short --seconds is.
constexpr int kMinRuns = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string metrics_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload halo|ckpt_stream|crash_restart "
               "--seed N --seconds S --trace 0 | --trace 1 --metrics-out FILE\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--metrics-out") {
      a.metrics_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  if (a.trace == 1 && a.metrics_out.empty()) usage("--trace 1 needs --metrics-out");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Every option stays at the code's default: an exported STARFISH_* knob
/// would silently measure another configuration.
bool environment_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "STARFISH_", 9) == 0) {
      std::fprintf(stderr, "perfbench: unset %s; the benchmark runs the defaults\n", *e);
      clean = false;
    }
  }
  return clean;
}

// The knob accessors are read through requires-expressions so that this
// file still compiles once a knob is deleted from src/.
template <typename E>
std::string shard_count(E& engine) {
  if constexpr (requires { engine.shards(); }) {
    return std::to_string(engine.shards());
  } else {
    return "1";
  }
}

template <typename D>
std::string gcs_topology(D& daemon) {
  if constexpr (requires { daemon.group().topology(); }) {
    static const char* const kNames[] = {"flat", "tree"};
    const auto t = static_cast<size_t>(daemon.group().topology());
    return t < 2 ? kNames[t] : std::to_string(t);
  } else {
    return "single";
  }
}

// Unqualified, so the name is looked up (by ADL) only when instantiated.
template <typename S>
std::string compress_mode(S& store) {
  if constexpr (requires { compress_mode_name(store.compress_mode()); }) {
    return compress_mode_name(store.compress_mode());
  } else {
    return "off";
  }
}

/// The configuration the defaults resolve to, read off a throwaway cluster.
std::string resolved_knobs() {
  core::ClusterOptions opts;
  opts.nodes = 2;
  core::Cluster probe(opts);
  return std::string("simd=") + util::simd::isa_name(util::simd::level()) +
         " gcs_topology=" + gcs_topology(probe.daemon_at(0)) +
         " ckpt_compress=" + compress_mode(probe.store()) +
         " shards=" + shard_count(probe.engine());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// "min / median / max" of host samples, for the human-readable report.
std::string spread(std::vector<double> v) {
  if (v.empty()) return "-";
  std::sort(v.begin(), v.end());
  char buf[96];
  std::snprintf(buf, sizeof buf, "min %.6f / median %.6f / max %.6f", v.front(), median(v),
                v.back());
  return buf;
}

/// Nearest-rank percentile of exact virtual samples (ns), in `unit_ns`.
double percentile(std::vector<int64_t> v, double p, double unit_ns) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / unit_ns;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double elapsed_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  uint64_t n;  ///< samples behind the value (1 for a count or a single reading)
};

void print_table(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-40s %18.6f %-6s n=%llu\n", m.name.c_str(), m.value, m.unit,
                static_cast<unsigned long long>(m.n));
  }
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), ms[i].value, ms[i].unit);
  }
  std::printf("}}\n");
}

/// The workload-specific virtual metrics of one run, with their n. A
/// workload without the event (no checkpoints on halo, no crash outside
/// crash_restart) reports 0 with n = 0.
std::vector<Metric> virtual_metrics(const Sample& s) {
  return {
      {"job_virtual_s", static_cast<double>(s.job_virtual_ns) / 1e9, "s", 1},
      {"step_virtual_ms.p50", percentile(s.step_ns, 50, 1e6), "ms", s.step_ns.size()},
      {"step_virtual_ms.p99", percentile(s.step_ns, 99, 1e6), "ms", s.step_ns.size()},
      {"ckpt_commit_virtual_ms.p50", percentile(s.commit_ns, 50, 1e6), "ms",
       s.commit_ns.size()},
      {"recovery_virtual_ms.p50", percentile(s.recovery_ns, 50, 1e6), "ms",
       s.recovery_ns.size()},
  };
}

uint64_t counter(const obs::Hub& hub, const char* name) {
  const obs::Counter* c = hub.metrics.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// Mean of an obs duration histogram (virtual ns), in ms. The store's
/// histograms bucket by powers of two, so the mean is the exact figure.
double histogram_mean_ms(const obs::Hub& hub, const char* name) {
  const obs::Histogram* h = hub.metrics.find_histogram(name);
  if (h == nullptr || h->count() == 0) return 0;
  return static_cast<double>(h->sum()) / static_cast<double>(h->count()) / 1e6;
}

double span_host_ms(const Spans& spans, const char* name) {
  auto it = spans.totals.find(name);
  return it == spans.totals.end() ? 0 : static_cast<double>(it->second.host_ns) / 1e6;
}

/// The per-layer metrics of one traced run.
std::vector<Metric> layer_metrics(const obs::Hub& hub, const Spans& spans, const Sample& s,
                                  double overhead_s, uint64_t overhead_n) {
  const uint64_t scanned = counter(hub, "ckpt.pages_scanned");
  const uint64_t dirty = counter(hub, "ckpt.pages_dirty");
  uint64_t run_events = 0, run_host_ns = 0;
  if (auto it = spans.totals.find("core.run_for"); it != spans.totals.end()) {
    run_events = it->second.events;
    run_host_ns = it->second.host_ns;
  }
  auto count = [&](const char* metric, const char* name) {
    return Metric{metric, static_cast<double>(counter(hub, name)), "count", 1};
  };
  std::vector<Metric> out = {
      // sim
      {"sim.events", static_cast<double>(s.events), "count", 1},
      count("sim.fiber_switches", "sim.fiber_switches"),
      count("sim.stack_pool.misses", "sim.stack_pool.misses"),
      {"sim.host_ns_per_event",
       run_events == 0 ? 0 : static_cast<double>(run_host_ns) / static_cast<double>(run_events),
       "ns", run_events},
      // vm
      count("vm.instructions_retired", "sim.vm.instructions_retired"),
      count("vm.fused_hits", "sim.vm.fused_hits"),
      {"vm.register_host_ms", span_host_ms(spans, "vm.register"), "ms", 1},
      // mpi (the driver's own native apps)
      {"mpi.sendrecv.calls", static_cast<double>(s.sendrecv_ns.size()), "count", 1},
      {"mpi.sendrecv.wait_virtual_us.p50", percentile(s.sendrecv_ns, 50, 1e3), "us",
       s.sendrecv_ns.size()},
      {"mpi.sendrecv.wait_virtual_us.p99", percentile(s.sendrecv_ns, 99, 1e3), "us",
       s.sendrecv_ns.size()},
      {"mpi.allreduce.wait_virtual_us.p50", percentile(s.allreduce_ns, 50, 1e3), "us",
       s.allreduce_ns.size()},
      {"mpi.allreduce.wait_virtual_us.p99", percentile(s.allreduce_ns, 99, 1e3), "us",
       s.allreduce_ns.size()},
      // net and VNI
      count("net.packets_sent", "net.packets_sent"),
      {"net.bytes_sent", static_cast<double>(counter(hub, "net.bytes_sent")), "B", 1},
      count("vni.frames_sent", "vni.frames_sent"),
      {"vni.bytes_sent", static_cast<double>(counter(hub, "vni.bytes_sent")), "B", 1},
      count("net.chunk.chunks", "net.chunk.chunks"),
      // gcs
      count("gcs.messages_delivered", "gcs.messages_delivered"),
      count("gcs.views_installed", "gcs.views_installed"),
      count("gcs.flush_rounds", "gcs.flush_rounds"),
      count("gcs.seq.order_sends", "gcs.seq.order_sends"),
      count("gcs.install_retransmit_msgs", "gcs.install_retransmit_msgs"),
      {"gcs.boot_host_ms", span_host_ms(spans, "core.boot"), "ms", 1},
      // ckpt
      count("ckpt.checkpoints_taken", "ckpt.checkpoints_taken"),
      {"ckpt.store.bytes_written", static_cast<double>(counter(hub, "ckpt.store.bytes_written")),
       "B", 1},
      {"ckpt.store.put_virtual_ms.mean", histogram_mean_ms(hub, "ckpt.store.put_ns"), "ms", 1},
      {"ckpt.dirty_ratio",
       scanned == 0 ? 0 : static_cast<double>(dirty) / static_cast<double>(scanned), "ratio",
       scanned},
      count("ckpt.pages_scanned", "ckpt.pages_scanned"),
      count("ckpt.store.epochs_committed", "ckpt.store.epochs_committed"),
      count("ckpt.store.epochs_aborted", "ckpt.store.epochs_aborted"),
      {"ckpt.replica.bytes_shipped",
       static_cast<double>(counter(hub, "ckpt.replica.bytes_shipped")), "B", 1},
      {"ckpt.replica.bytes_fetched",
       static_cast<double>(counter(hub, "ckpt.replica.bytes_fetched")), "B", 1},
      {"ckpt.replica.get_virtual_ms.mean", histogram_mean_ms(hub, "ckpt.replica.get_ns"), "ms",
       1},
      {"ckpt.retained_images", static_cast<double>(s.retained_images), "count", 1},
      // core
      {"core.cluster_host_ms", span_host_ms(spans, "core.construct"), "ms", 1},
      // daemon
      {"daemon.launch_virtual_ms.p50", percentile(s.launch_ns, 50, 1e6), "ms",
       s.launch_ns.size()},
      count("daemon.launches", "daemon.launches"),
      count("daemon.restarts", "daemon.restarts"),
      count("daemon.restores", "daemon.restores"),
      // tracing itself
      {"trace.overhead_host_s", overhead_s, "s", overhead_n},
  };
  for (const Metric& m : virtual_metrics(s)) {
    if (m.name != "job_virtual_s") out.push_back(m);
  }
  return out;
}

void print_spans(const Spans& spans) {
  std::printf("driver spans (traced run):\n");
  for (const auto& [name, t] : spans.totals) {
    std::printf("  %-20s calls=%-8llu host_ms=%-12.3f virtual_ms=%-12.3f events=%llu\n",
                name.c_str(), static_cast<unsigned long long>(t.calls),
                static_cast<double>(t.host_ns) / 1e6, static_cast<double>(t.virtual_ns) / 1e6,
                static_cast<unsigned long long>(t.events));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  perfbench::Workload workload{};
  if (!perfbench::parse_workload(args.workload, workload)) usage("unknown --workload");
  if (!environment_clean()) return 2;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("resolved defaults: %s\n", resolved_knobs().c_str());

  bool deterministic = true;
  uint64_t attempted = 0, failed = 0;
  uint64_t reference = 0;
  bool have_reference = false;
  auto account = [&](const Sample& s) {
    attempted += s.attempted;
    failed += s.failed;
    if (!have_reference) {
      reference = s.fingerprint();
      have_reference = true;
    } else if (s.fingerprint() != reference) {
      deterministic = false;
    }
  };

  if (args.trace == 0) {
    // The first whole run warms the allocator and the fiber-stack pool and
    // is not timed. Peak RSS is read right after it: a destroyed cluster
    // does not return everything it held (fiber stacks are abandoned
    // unwound), so later runs in this process would raise the high-water
    // mark by an amount that depends on how many runs fit in --seconds.
    const Sample first = perfbench::run_workload(workload, args.seed, false, nullptr);
    account(first);
    const double rss_mb = peak_rss_mb();
    std::vector<double> setups, hosts;
    const auto timed_start = std::chrono::steady_clock::now();
    while (static_cast<int>(hosts.size()) < kMinRuns || elapsed_s(timed_start) < args.seconds) {
      const Sample s = perfbench::run_workload(workload, args.seed, false, nullptr);
      account(s);
      hosts.push_back(s.host_s);
      for (int i = 0; i < kSetupsPerRun; ++i) {
        setups.push_back(perfbench::run_workload(workload, args.seed, true, nullptr).setup_s);
      }
    }
    std::printf("host samples: setup_s %s\n              host_s  %s\n", spread(setups).c_str(),
                spread(hosts).c_str());
    std::printf("virtual fingerprint %016llx over %zu runs: %s\n",
                static_cast<unsigned long long>(reference), hosts.size() + 1,
                deterministic ? "identical" : "DIFFERS");
    std::vector<Metric> e2e = {
        {"setup_s", median(setups), "s", setups.size()},
        {"host_s", median(hosts), "s", hosts.size()},
        {"peak_rss_mb", rss_mb, "MB", 1},
    };
    const std::vector<Metric> virt = virtual_metrics(first);
    e2e.push_back(virt.front());  // job_virtual_s
    std::printf("end-to-end metrics:\n");
    print_table(e2e);
    std::printf("workload virtual metrics (exact; 0 with n=0 where the event does not occur):\n");
    print_table(std::vector<Metric>(virt.begin() + 1, virt.end()));
    std::printf("  %-40s %18.6f %-6s n=%llu\n", "fail_ratio",
                attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
                "ratio", static_cast<unsigned long long>(attempted));
    print_result(deterministic && failed == 0, attempted, failed, e2e);
    return 0;
  }

  // --trace 1: an untimed warm-up, then untraced and traced runs in pairs,
  // alternating which side goes first, until the time is up.
  account(perfbench::run_workload(workload, args.seed, false, nullptr));
  std::vector<double> untraced, traced;
  Sample layer_sample;
  Spans layer_spans;
  std::unique_ptr<benchutil::MetricsReporter> kept;  // the first traced run's hub
  auto run_untraced = [&] {
    const Sample s = perfbench::run_workload(workload, args.seed, false, nullptr);
    account(s);
    untraced.push_back(s.host_s);
  };
  auto run_traced = [&]() -> bool {
    std::string path = args.metrics_out;
    std::vector<char*> reporter_argv = {argv[0], const_cast<char*>("--metrics"), path.data()};
    auto reporter = std::make_unique<benchutil::MetricsReporter>(3, reporter_argv.data());
    Spans spans;
    Sample s = perfbench::run_workload(workload, args.seed, false, &spans);
    account(s);
    traced.push_back(s.host_s);
    if (kept != nullptr) return true;  // later hubs only time tracing
    if (!reporter->write()) return false;
    obs::set_default_hub(nullptr);
    layer_sample = std::move(s);
    layer_spans = std::move(spans);
    kept = std::move(reporter);
    return true;
  };
  const auto pairs_start = std::chrono::steady_clock::now();
  while (traced.empty() || elapsed_s(pairs_start) < args.seconds) {
    const bool traced_first = traced.size() % 2 == 1;
    if (!traced_first) run_untraced();
    if (!run_traced()) return 1;
    if (traced_first) run_untraced();
  }
  std::printf("virtual fingerprint %016llx over %zu untraced + %zu traced runs: %s\n",
              static_cast<unsigned long long>(reference), untraced.size(), traced.size(),
              deterministic ? "identical" : "DIFFERS");
  const double overhead = median(traced) - median(untraced);
  std::printf("tracing overhead: traced host_s %.6f - untraced host_s %.6f = %.6f s\n",
              median(traced), median(untraced), overhead);
  print_spans(layer_spans);
  const std::vector<Metric> layers =
      layer_metrics(kept->hub(), layer_spans, layer_sample, overhead, traced.size());
  std::printf("per-layer metrics:\n");
  print_table(layers);
  print_result(deterministic && failed == 0, attempted, failed, layers);
  return 0;
}
