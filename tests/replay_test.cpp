// Same-seed replay of the full stack.
//
// The engine is deterministic: same seed + same workload -> the same virtual
// history. The engine golden test pins that for the sim/GCS layers; this
// suite pins it end to end — MPI application, daemon group, fault
// injection, node crash, restart from checkpoint — by running the workload
// twice and comparing every observable artifact a run produces: final
// virtual time, event count, application output, the fault injector's
// merged trace, the checkpoint store's full content hash, and the exported
// virtual-time trace.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "obs/obs.hpp"

namespace starfish {
namespace {

using daemon::CkptLevel;
using daemon::CrProtocol;
using daemon::FtPolicy;
using daemon::JobSpec;

std::string ring_program(int rounds, int spin) {
  return R"(
func main 0 2
  syscall rank
  store_local 0
  syscall world_size
  store_local 1
  push_int 0
  store_global 0
  push_int 0
  store_global 1
loop:
  load_global 0
  push_int )" + std::to_string(rounds) + R"(
  ge
  jmp_if_false body
  jmp done
body:
  push_int )" + std::to_string(spin) + R"(
  syscall spin
  load_local 0
  push_int 0
  eq
  jmp_if_false relay
  push_int 1
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
  load_global 1
  syscall print
finish:
  halt
)";
}

struct Artifacts {
  bool done = false;
  sim::Time end_time = 0;
  uint64_t events = 0;
  std::vector<std::string> output;
  std::vector<std::string> fault_trace;
  uint64_t ckpt_hash = 0;
  size_t ckpt_images = 0;
  uint64_t ckpt_bytes = 0;
  std::string trace_json;
};

/// The obs_test chaos scenario: lossy TCP, periodic coordinated
/// checkpoints, a mid-run node crash, restart-policy recovery of all four
/// ranks from the committed epoch.
Artifacts chaos_run(uint64_t seed) {
  obs::Hub hub;
  hub.tracer.set_enabled(true);
  core::ClusterOptions opts;
  opts.nodes = 4;
  opts.seed = seed;
  core::Cluster cluster(opts);
  cluster.engine().set_obs(&hub);
  cluster.registry().register_vm("ring", ring_program(40, 100000));
  cluster.boot();
  cluster.faults().set_transport(
      net::TransportKind::kTcpIp,
      {.drop = 0.01, .duplicate = 0.01, .delay = sim::microseconds(20)});
  JobSpec job;
  job.name = "replayring";
  job.binary = "ring";
  job.nprocs = 4;
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = sim::milliseconds(50);
  cluster.submit(job);
  cluster.run_for(sim::milliseconds(150));
  cluster.crash_node(2);
  Artifacts a;
  a.done = cluster.run_until_done("replayring");
  a.end_time = cluster.engine().now();
  a.events = cluster.engine().events_executed();
  a.output = cluster.output("replayring");
  a.fault_trace = cluster.faults().trace();
  // Count whichever tier absorbed the writes: under
  // STARFISH_CKPT_BACKEND=replica (the CI diskless pass) images live in
  // the replica store and the disk maps stay empty.
  a.ckpt_hash = cluster.store().content_hash();
  a.ckpt_images = cluster.store().image_count();
  a.ckpt_bytes = cluster.store().bytes_written();
  if (const auto* replicas = cluster.store().replicas()) {
    a.ckpt_hash ^= replicas->content_hash();
    a.ckpt_images += replicas->entry_count();
    a.ckpt_bytes += replicas->bytes_shipped();
  }
  a.trace_json = hub.tracer.to_chrome_json();
  return a;
}

TEST(Replay, ChaosRecoveryRunReplaysIdentically) {
  const Artifacts first = chaos_run(21);
  ASSERT_TRUE(first.done);
  ASSERT_FALSE(first.fault_trace.empty());  // faults actually fired
  ASSERT_GT(first.ckpt_images, 0u);         // checkpoints actually committed
  const Artifacts again = chaos_run(21);
  ASSERT_TRUE(again.done);
  EXPECT_EQ(again.end_time, first.end_time);
  EXPECT_EQ(again.events, first.events);
  EXPECT_EQ(again.output, first.output);
  EXPECT_EQ(again.fault_trace, first.fault_trace);
  EXPECT_EQ(again.ckpt_hash, first.ckpt_hash);
  EXPECT_EQ(again.ckpt_images, first.ckpt_images);
  EXPECT_EQ(again.ckpt_bytes, first.ckpt_bytes);
  EXPECT_TRUE(again.trace_json == first.trace_json);
}

TEST(Replay, DifferentSeedsStillDiverge) {
  // Sanity for the suite itself: the artifact comparison is strong enough to
  // notice a genuinely different history (otherwise every assertion above
  // would pass vacuously).
  const Artifacts a = chaos_run(21);
  const Artifacts b = chaos_run(22);
  EXPECT_NE(a.fault_trace, b.fault_trace);
}

// Engine::now() is what daemon and GCS code on host fibers timestamps
// messages and timers with: it must never step backwards on any host, and
// run_for() must land the clock exactly on the requested boundary.
TEST(Replay, NowIsMonotonicOnEveryHostAcrossRunForBoundaries) {
  sim::Engine eng(/*seed=*/5);
  constexpr int kHosts = 8;
  std::vector<sim::HostPtr> hosts;
  std::vector<std::vector<sim::Time>> samples(kHosts);
  for (int h = 0; h < kHosts; ++h) {
    hosts.push_back(std::make_shared<sim::Host>(eng, static_cast<sim::HostId>(h),
                                                "h" + std::to_string(h),
                                                sim::default_machine()));
  }
  for (int h = 0; h < kHosts; ++h) {
    hosts[h]->spawn("sampler", [&eng, &samples, h] {
      for (int i = 0; i < 200; ++i) {
        samples[h].push_back(eng.now());
        eng.sleep(sim::microseconds(7 + (h * 13 + i) % 91));
        samples[h].push_back(eng.now());
      }
    });
  }
  // Odd increments, so run_for boundaries fall between the samplers' wakes.
  sim::Time expected = eng.now();
  for (const auto d : {sim::microseconds(333), sim::milliseconds(1),
                       sim::microseconds(4999), sim::milliseconds(20)}) {
    eng.run_for(d);
    expected += d;
    EXPECT_EQ(eng.now(), expected);  // the clock lands exactly on the boundary
  }
  eng.run();
  for (int h = 0; h < kHosts; ++h) {
    ASSERT_EQ(samples[h].size(), 400u) << "host " << h;
    for (size_t i = 1; i < samples[h].size(); ++i) {
      ASSERT_LE(samples[h][i - 1], samples[h][i]) << "host " << h << " sample " << i;
    }
  }
}

}  // namespace
}  // namespace starfish
