#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "core/cluster.hpp"
#include "util/simd/simd.hpp"

namespace perfbench {

using namespace starfish;

namespace {

// Virtual-time step of the driver's polling loops. Polling never changes
// the simulation (the engine orders events by time and sequence, not by
// run_for boundaries); it only sets the resolution of the virtual times the
// driver reads off the store and the daemons.
constexpr sim::Duration kPoll = sim::milliseconds(2);
constexpr sim::Duration kSetupPoll = sim::milliseconds(1);
constexpr sim::Duration kJobTimeout = sim::seconds(120.0);

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Stateless seeded draw: the same (seed, a, b, c) always gives the same
/// value, so apps and the driver's golden replays agree without sharing an
/// RNG stream.
uint64_t draw(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0) {
  return mix(seed ^ mix(a ^ mix(b ^ mix(c))));
}

template <typename F>
void timed(Spans* spans, const char* name, core::Cluster& c, F&& fn) {
  Spans::time(spans, name, &c.engine(), std::forward<F>(fn));
}

daemon::AppPhase phase_of(core::Cluster& c, const std::string& app, Spans* spans) {
  daemon::AppPhase p = daemon::AppPhase::kPlacing;
  timed(spans, "core.phase", c, [&] { p = c.phase(app); });
  return p;
}

bool terminal(daemon::AppPhase p) {
  return p == daemon::AppPhase::kCompleted || p == daemon::AppPhase::kFailed ||
         p == daemon::AppPhase::kDeleted;
}

/// Advances until every rank of `app` runs (or, for a set-up-only job with
/// no steps, has already finished). False on failure or timeout.
bool run_until_running(core::Cluster& c, const std::string& app, Spans* spans) {
  const sim::Time deadline = c.engine().now() + kJobTimeout;
  while (c.engine().now() < deadline) {
    const daemon::AppPhase p = phase_of(c, app, spans);
    if (p == daemon::AppPhase::kRunning || p == daemon::AppPhase::kCompleted) return true;
    if (terminal(p)) return false;
    timed(spans, "core.run_for", c, [&] { c.run_for(kSetupPoll); });
  }
  return false;
}

/// Submits `job` and advances until its ranks run, recording the virtual
/// submit -> running time. False on failure or timeout.
bool launch(core::Cluster& c, const daemon::JobSpec& job, Sample& out, Spans* spans) {
  const sim::Time submitted = c.engine().now();
  timed(spans, "core.submit", c, [&] { c.submit(job); });
  const bool running = run_until_running(c, job.name, spans);
  out.launch_ns.push_back(c.engine().now() - submitted);
  return running;
}

/// Reads every epoch of `app` committed since `seen` off the store.
void collect_commits(core::Cluster& c, const std::string& app, uint64_t& seen,
                     std::vector<int64_t>& out, Spans* spans) {
  std::optional<uint64_t> line;
  timed(spans, "ckpt.store", c, [&] { line = c.store().latest_committed(app); });
  if (!line) return;
  for (uint64_t e = seen + 1; e <= *line; ++e) {
    std::optional<sim::Duration> d;
    timed(spans, "ckpt.store", c, [&] { d = c.store().epoch_duration(app, e); });
    if (d) out.push_back(*d);
  }
  seen = std::max(seen, *line);
}

/// Advances until `app` ends, collecting commits. True when it completed.
bool run_until_done(core::Cluster& c, const std::string& app, uint64_t& seen_epoch,
                    std::vector<int64_t>& commits, Spans* spans) {
  const sim::Time deadline = c.engine().now() + kJobTimeout;
  while (c.engine().now() < deadline) {
    timed(spans, "core.run_for", c, [&] { c.run_for(kPoll); });
    collect_commits(c, app, seen_epoch, commits, spans);
    const daemon::AppPhase p = phase_of(c, app, spans);
    if (terminal(p)) return p == daemon::AppPhase::kCompleted;
  }
  return false;
}

std::vector<std::string> output_of(core::Cluster& c, const std::string& app, Spans* spans) {
  std::vector<std::string> lines;
  timed(spans, "core.output", c, [&] { lines = c.output(app); });
  return lines;
}

/// Virtual span over which the native ranks of one job ran.
struct RankWindow {
  sim::Time first_start = std::numeric_limits<sim::Time>::max();
  sim::Time last_end = std::numeric_limits<sim::Time>::min();
  void start(sim::Time t) { first_start = std::min(first_start, t); }
  void end(sim::Time t) { last_end = std::max(last_end, t); }
  int64_t length() const { return last_end >= first_start ? last_end - first_start : 0; }
};

// ------------------------------------------------------------------- halo --
//
// 32 native ranks, one per workstation, on the default (BIP/Myrinet) data
// path. Each step: a seeded compute slice, a two-way 64 KB halo exchange
// with both ring neighbours, and an 8-byte allreduce of what was received.

constexpr uint32_t kHaloRanks = 32;
constexpr uint32_t kHaloSteps = 1200;
constexpr size_t kHaloBytes = 64 * 1024;

/// The value rank `r` stamps into its step-`s` halo (24 bits, so sums of
/// 2 * 32 of them cannot overflow).
int64_t halo_value(uint64_t seed, uint32_t r, uint32_t s) {
  return static_cast<int64_t>(draw(seed, 1, r, s) >> 40);
}

int64_t read_stamp(const util::Bytes& b) {
  int64_t v = -1;
  if (b.size() == kHaloBytes) std::memcpy(&v, b.data(), sizeof v);
  return v;
}

Sample run_halo(uint64_t seed, bool setup_only, Spans* spans) {
  const auto t0 = Clock::now();
  Sample out;
  RankWindow window;
  uint64_t correct_ops = 0;
  const bool traced = spans != nullptr;

  std::unique_ptr<core::Cluster> cluster;
  Spans::time(spans, "core.construct", nullptr, [&] {
    core::ClusterOptions opts;
    opts.nodes = kHaloRanks;
    cluster = std::make_unique<core::Cluster>(opts);
  });
  core::Cluster& c = *cluster;
  // A set-up-only job runs no steps, so its ranks end normally and free
  // what they allocated (a destroyed cluster abandons fiber stacks unwound).
  const uint32_t steps = setup_only ? 0 : kHaloSteps;
  c.registry().register_native("halo", [&, seed, traced, steps](core::AppContext& ctx) {
    mpi::Comm& w = ctx.world();
    sim::Engine& e = ctx.engine();
    const uint32_t r = ctx.rank();
    const uint32_t n = ctx.size();
    const int left = static_cast<int>((r + n - 1) % n);
    const int right = static_cast<int>((r + 1) % n);
    util::Bytes halo(kHaloBytes, static_cast<std::byte>(r));
    window.start(e.now());
    for (uint32_t s = 0; s < steps; ++s) {
      const sim::Time step0 = e.now();
      ctx.compute(sim::microseconds(1000 + static_cast<int64_t>(draw(seed, 2, r, s) % 500)));
      const int64_t mine = halo_value(seed, r, s);
      std::memcpy(halo.data(), &mine, sizeof mine);
      const sim::Time x0 = e.now();
      mpi::Request to_left = w.isend(left, 0, halo);
      mpi::Request to_right = w.isend(right, 1, halo);
      const util::Bytes from_left = w.recv(left, 1);
      const util::Bytes from_right = w.recv(right, 0);
      w.proc().wait(to_left);
      w.proc().wait(to_right);
      if (traced) out.sendrecv_ns.push_back(e.now() - x0);
      const int64_t got = read_stamp(from_left) + read_stamp(from_right);
      const sim::Time a0 = e.now();
      const std::vector<int64_t> sum = w.allreduce(std::vector<int64_t>{got}, mpi::ReduceOp::kSum);
      if (traced) out.allreduce_ns.push_back(e.now() - a0);
      // Closed form: every rank's stamp reaches both of its neighbours.
      int64_t expected = 0;
      for (uint32_t q = 0; q < n; ++q) expected += 2 * halo_value(seed, q, s);
      if (sum.size() == 1 && sum[0] == expected && read_stamp(from_left) >= 0 &&
          read_stamp(from_right) >= 0) {
        ++correct_ops;
      }
      out.step_ns.push_back(e.now() - step0);
    }
    window.end(e.now());
  });

  daemon::JobSpec job;
  job.name = "halo";
  job.binary = "halo";
  job.nprocs = kHaloRanks;
  timed(spans, "core.boot", c, [&] { c.boot(); });
  const bool running = launch(c, job, out, spans);
  out.setup_s = seconds_since(t0);
  uint64_t seen = 0;
  std::vector<int64_t> commits;
  if (setup_only) {
    run_until_done(c, job.name, seen, commits, nullptr);  // the step-less job ends
    return out;
  }

  const auto t1 = Clock::now();
  const bool done = running && run_until_done(c, job.name, seen, commits, spans);
  out.host_s = seconds_since(t1);

  out.job_virtual_ns = window.length();
  out.attempted = uint64_t{kHaloRanks} * kHaloSteps;
  out.failed = out.attempted - (done ? correct_ops : 0);
  out.events = c.engine().events_executed();
  out.retained_images = c.store().image_count();
  return out;
}

// ------------------------------------------------------------ ckpt_stream --
//
// 8 native ranks with 4 MB of state each. Every step computes, overwrites a
// few seed-chosen 64-byte stripes, and meets the other ranks at a barrier;
// stop-and-sync takes incremental native images to the disk backend every
// 100 ms.

constexpr uint32_t kStreamRanks = 8;
constexpr uint32_t kStreamSteps = 3000;
constexpr size_t kStateBytes = 4 * 1024 * 1024;
constexpr size_t kPageBytes = 4096;
constexpr size_t kStripeBytes = 64;
constexpr uint32_t kWritesPerStep = 4;

void init_state(util::Bytes& state, uint64_t seed, uint32_t r) {
  state.assign(kStateBytes, static_cast<std::byte>(draw(seed, 3, r) & 0xff));
}

void apply_writes(util::Bytes& state, uint64_t seed, uint32_t r, uint32_t s) {
  for (uint32_t j = 0; j < kWritesPerStep; ++j) {
    const uint64_t d = draw(seed, 4, r, uint64_t{s} * kWritesPerStep + j);
    const size_t page = d % (kStateBytes / kPageBytes);
    const size_t off = page * kPageBytes + (d >> 32) % (kPageBytes - kStripeBytes);
    std::memset(state.data() + off, static_cast<int>(d >> 16) & 0xff, kStripeBytes);
    std::memcpy(state.data() + off, &d, sizeof d);
  }
}

uint64_t state_fingerprint(const util::Bytes& state) {
  return util::simd::fingerprint(state.data(), state.size());
}

/// The fault-free final state of rank `r`, replayed outside the simulator.
uint64_t replay_fingerprint(uint64_t seed, uint32_t r) {
  util::Bytes state;
  init_state(state, seed, r);
  for (uint32_t s = 0; s < kStreamSteps; ++s) apply_writes(state, seed, r, s);
  return state_fingerprint(state);
}

/// Asks for incremental images while JobSpec still has the switch; a
/// checkpoint path that makes every image a page delta needs no request.
template <typename J>
void request_incremental(J& job) {
  if constexpr (requires { job.incremental_ckpt = true; }) job.incremental_ckpt = true;
}

Sample run_ckpt_stream(uint64_t seed, bool setup_only, Spans* spans) {
  const auto t0 = Clock::now();
  Sample out;
  RankWindow window;

  std::unique_ptr<core::Cluster> cluster;
  Spans::time(spans, "core.construct", nullptr, [&] {
    core::ClusterOptions opts;
    opts.nodes = kStreamRanks;
    opts.ckpt_backend = ckpt::CkptBackend::kDisk;
    cluster = std::make_unique<core::Cluster>(opts);
  });
  core::Cluster& c = *cluster;
  const uint32_t steps = setup_only ? 0 : kStreamSteps;  // as in run_halo
  c.registry().register_native("stream", [&, seed, steps](core::AppContext& ctx) {
    sim::Engine& e = ctx.engine();
    const uint32_t r = ctx.rank();
    util::Bytes state;
    init_state(state, seed, r);
    ctx.set_state_capture([&state] { return state; });
    ctx.set_state_restore([&state](const util::Bytes& b) { state = b; });
    window.start(e.now());
    for (uint32_t s = 0; s < steps; ++s) {
      const sim::Time step0 = e.now();
      ctx.compute(sim::microseconds(2000 + static_cast<int64_t>(draw(seed, 5, r, s) % 1000)));
      apply_writes(state, seed, r, s);
      ctx.world().barrier();
      out.step_ns.push_back(e.now() - step0);
    }
    window.end(e.now());
    ctx.print("fp " + std::to_string(r) + " " + std::to_string(state_fingerprint(state)));
  });

  daemon::JobSpec job;
  job.name = "stream";
  job.binary = "stream";
  job.nprocs = kStreamRanks;
  job.protocol = daemon::CrProtocol::kStopAndSync;
  job.level = daemon::CkptLevel::kNative;
  job.ckpt_interval = sim::milliseconds(100);
  request_incremental(job);
  timed(spans, "core.boot", c, [&] { c.boot(); });
  const bool running = launch(c, job, out, spans);
  out.setup_s = seconds_since(t0);
  uint64_t seen = 0;
  std::vector<int64_t> commits;
  if (setup_only) {
    run_until_done(c, job.name, seen, commits, nullptr);  // the step-less job ends
    return out;
  }

  const auto t1 = Clock::now();
  const bool done = running && run_until_done(c, job.name, seen, commits, spans);
  out.host_s = seconds_since(t1);

  out.commit_ns = std::move(commits);
  out.job_virtual_ns = window.length();
  out.events = c.engine().events_executed();
  timed(spans, "ckpt.store", c, [&] { out.retained_images = c.store().image_count(); });
  const std::vector<std::string> lines = output_of(c, job.name, spans);
  out.attempted = kStreamRanks;
  out.failed = kStreamRanks;
  if (done) {
    for (uint32_t r = 0; r < kStreamRanks; ++r) {
      const std::string want =
          "fp " + std::to_string(r) + " " + std::to_string(replay_fingerprint(seed, r));
      if (std::find(lines.begin(), lines.end(), want) != lines.end()) --out.failed;
    }
  }
  return out;
}

// ---------------------------------------------------------- crash_restart --
//
// One long-lived cluster of 18 workstations on the replica backend (R = 2)
// serves a sequence of 16-rank VM ring jobs, as a Starfish daemon group
// serves many jobs. Each job checkpoints VM images by stop-and-sync every
// 50 ms and rewrites a heap array every round; the driver crashes the
// workstation of a seed-chosen rank at a seed-chosen time, adds a fresh
// workstation, and runs the job to completion under kRestart. One crash per
// job: the daemon gives up on a job after kMaxRestarts.

constexpr uint32_t kRingNodes = 18;
constexpr uint32_t kRingRanks = 16;
constexpr uint32_t kRingJobs = 20;
constexpr int64_t kRingRounds = 100;
constexpr int64_t kRingSpin = 40000;
constexpr int64_t kRingHeap = 1024;
constexpr int64_t kCrashMinMs = 150;
constexpr int64_t kCrashSpanMs = 500;

/// The token ring of bench_util.hpp plus a heap array: every round each
/// rank adds the round number to every element of its array, and rank 0
/// finally prints the token plus the sum of its array.
std::string ring_heap_program() {
  const std::string rounds = std::to_string(kRingRounds);
  const std::string heap = std::to_string(kRingHeap);
  // Locals: 0 rank, 1 world size, 2 array index. Globals: 0 round,
  // 1 token, 2 the array.
  return R"(
func main 0 3
  syscall rank
  store_local 0
  syscall world_size
  store_local 1
  push_int 0
  store_global 0
  push_int 0
  store_global 1
  push_int )" + heap + R"(
  new_array
  store_global 2
  push_int 0
  store_local 2
init:
  load_local 2
  push_int )" + heap + R"(
  ge
  jmp_if_false init_body
  jmp loop
init_body:
  load_global 2
  load_local 2
  push_int 0
  astore
  load_local 2
  push_int 1
  add
  store_local 2
  jmp init
loop:
  load_global 0
  push_int )" + rounds + R"(
  ge
  jmp_if_false body
  jmp done
body:
  push_int 0
  store_local 2
touch:
  load_local 2
  push_int )" + heap + R"(
  ge
  jmp_if_false touch_body
  jmp work
touch_body:
  load_global 2
  load_local 2
  load_global 2
  load_local 2
  aload
  load_global 0
  add
  astore
  load_local 2
  push_int 1
  add
  store_local 2
  jmp touch
work:
  push_int )" + std::to_string(kRingSpin) + R"(
  syscall spin
  load_local 0
  push_int 0
  eq
  jmp_if_false relay
  push_int 1
  load_local 1
  push_int 1
  eq
  jmp_if_false send0
  pop
  load_global 0
  push_int 1
  add
  store_global 0
  jmp loop
send0:
  load_global 1
  syscall send_to
  push_int -1
  syscall recv_from
  store_global 1
  load_global 0
  push_int 1
  add
  store_global 0
  jmp loop
relay:
  push_int -1
  syscall recv_from
  load_local 0
  add
  store_global 1
  load_local 0
  push_int 1
  add
  load_local 1
  mod
  load_global 1
  syscall send_to
  load_global 0
  push_int 1
  add
  store_global 0
  jmp loop
done:
  load_local 0
  push_int 0
  eq
  jmp_if_false finish
  push_int 0
  store_local 2
sum:
  load_local 2
  push_int )" + heap + R"(
  ge
  jmp_if_false sum_body
  jmp print
sum_body:
  load_global 1
  load_global 2
  load_local 2
  aload
  add
  store_global 1
  load_local 2
  push_int 1
  add
  store_local 2
  jmp sum
print:
  load_global 1
  syscall print
finish:
  halt
)";
}

/// Closed form of the line rank 0 prints: the token collects every other
/// rank's number once per round, and each array element ends at
/// 0 + 1 + ... + (rounds - 1).
int64_t ring_expected() {
  const int64_t n = kRingRanks;
  return kRingRounds * (n * (n - 1) / 2) + kRingHeap * (kRingRounds * (kRingRounds - 1) / 2);
}

/// The live workstations hosting ranks of `app`, in rank order, without
/// node 0: Cluster::submit hands every job to node 0's daemon, so the
/// sequence of jobs needs it alive.
std::vector<sim::HostId> crash_candidates(core::Cluster& c, const std::string& app) {
  std::map<uint32_t, sim::HostId> by_rank;
  for (size_t i = 1; i < c.node_count(); ++i) {
    daemon::Daemon& d = c.daemon_at(i);
    if (!c.network().host(d.host_id())->alive()) continue;
    for (uint32_t r : d.local_ranks(app)) by_rank[r] = d.host_id();
  }
  std::vector<sim::HostId> out;
  for (const auto& [rank, host] : by_rank) out.push_back(host);
  return out;
}

Sample run_crash_restart(uint64_t seed, bool setup_only, Spans* spans) {
  const auto t0 = Clock::now();
  Sample out;

  std::unique_ptr<core::Cluster> cluster;
  Spans::time(spans, "core.construct", nullptr, [&] {
    core::ClusterOptions opts;
    opts.nodes = kRingNodes;
    opts.ckpt_backend = ckpt::CkptBackend::kReplica;
    cluster = std::make_unique<core::Cluster>(opts);
  });
  core::Cluster& c = *cluster;
  timed(spans, "vm.register", c, [&] { c.registry().register_vm("ring", ring_heap_program()); });
  timed(spans, "core.boot", c, [&] { c.boot(); });

  const std::string expected = std::to_string(ring_expected());
  Clock::time_point t1;
  for (uint32_t j = 0; j < kRingJobs; ++j) {
    daemon::JobSpec job;
    job.name = "ring" + std::to_string(j);
    job.binary = "ring";
    job.nprocs = kRingRanks;
    job.policy = daemon::FtPolicy::kRestart;
    job.protocol = daemon::CrProtocol::kStopAndSync;
    job.level = daemon::CkptLevel::kVm;
    job.ckpt_interval = sim::milliseconds(50);
    const sim::Time submitted = c.engine().now();
    const bool running = launch(c, job, out, spans);
    if (j == 0) {
      out.setup_s = seconds_since(t0);
      if (setup_only) return out;
      t1 = Clock::now();
    }
    ++out.attempted;

    uint64_t seen = 0;
    const sim::Duration until_crash =
        sim::milliseconds(kCrashMinMs + static_cast<int64_t>(draw(seed, 6, j) % kCrashSpanMs));
    timed(spans, "core.run_for", c, [&] { c.run_for(until_crash); });
    collect_commits(c, job.name, seen, out.commit_ns, spans);
    const std::vector<sim::HostId> hosts = crash_candidates(c, job.name);
    const uint64_t line = seen;
    const sim::Time crashed = c.engine().now();
    if (running && !hosts.empty()) {
      const sim::HostId target = hosts[draw(seed, 7, j) % hosts.size()];
      timed(spans, "core.crash_node", c, [&] { c.crash_node(target); });
      timed(spans, "core.add_node", c, [&] { c.add_node(); });
    }
    bool recovered = false;
    bool done = false;
    const sim::Time deadline = crashed + kJobTimeout;
    while (running && c.engine().now() < deadline) {
      timed(spans, "core.run_for", c, [&] { c.run_for(kPoll); });
      collect_commits(c, job.name, seen, out.commit_ns, spans);
      if (!recovered && seen > line) {
        out.recovery_ns.push_back(c.engine().now() - crashed);
        recovered = true;
      }
      const daemon::AppPhase p = phase_of(c, job.name, spans);
      if (terminal(p)) {
        done = p == daemon::AppPhase::kCompleted;
        break;
      }
    }
    out.job_virtual_ns += c.engine().now() - submitted;
    bool golden = false;
    for (const std::string& l : output_of(c, job.name, spans)) golden |= l == expected;
    if (!(done && golden)) ++out.failed;
  }
  out.host_s = seconds_since(t1);
  out.events = c.engine().events_executed();
  timed(spans, "ckpt.store", c, [&] { out.retained_images = c.store().image_count(); });
  return out;
}

}  // namespace

uint64_t Sample::fingerprint() const {
  uint64_t h = 1469598103934665603ull;
  auto eat = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  auto eat_all = [&](const std::vector<int64_t>& v) {
    eat(v.size());
    for (int64_t x : v) eat(static_cast<uint64_t>(x));
  };
  eat(static_cast<uint64_t>(job_virtual_ns));
  eat_all(step_ns);
  eat_all(commit_ns);
  eat_all(recovery_ns);
  eat_all(launch_ns);
  eat(attempted);
  eat(failed);
  eat(events);
  eat(retained_images);
  return h;
}

bool parse_workload(const std::string& name, Workload& out) {
  if (name == "halo") out = Workload::kHalo;
  else if (name == "ckpt_stream") out = Workload::kCkptStream;
  else if (name == "crash_restart") out = Workload::kCrashRestart;
  else return false;
  return true;
}

Sample run_workload(Workload w, uint64_t seed, bool setup_only, Spans* spans) {
  switch (w) {
    case Workload::kHalo: return run_halo(seed, setup_only, spans);
    case Workload::kCkptStream: return run_ckpt_stream(seed, setup_only, spans);
    case Workload::kCrashRestart: return run_crash_restart(seed, setup_only, spans);
  }
  return {};
}

}  // namespace perfbench
