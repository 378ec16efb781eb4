#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/incremental.hpp"
#include "core/bus.hpp"
#include "core/cluster.hpp"
#include "obs/obs.hpp"

namespace starfish::core {
namespace {

using daemon::AppPhase;
using daemon::CkptLevel;
using daemon::CrProtocol;
using daemon::FtPolicy;
using daemon::JobSpec;
using sim::milliseconds;
using sim::seconds;

// VM ring app: a token circulates R rounds; every rank adds its rank number
// on receipt; rank 0 prints the final token (= R * sum of ranks) and all
// ranks halt. Exercises p2p + restartable VM state.
std::string ring_program(int rounds, int spin_per_hop) {
  return R"(
# globals: g0 = round counter, g1 = token
func main 0 2
  syscall rank
  store_local 0          # my rank
  syscall world_size
  store_local 1          # n
  push_int 0
  store_global 0         # round = 0
  push_int 0
  store_global 1         # token = 0
loop:
  load_global 0
  push_int )" + std::to_string(rounds) + R"(
  ge
  jmp_if_false body
  jmp done
body:
  push_int )" + std::to_string(spin_per_hop) + R"(
  syscall spin
  load_local 0
  push_int 0
  eq
  jmp_if_false relay
  # rank 0: send token, then wait for it to come back
  push_int 1
  load_local 1
  push_int 1
  eq
  jmp_if_false send0
  pop                     # n == 1: nobody to send to; just count rounds
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
  # other ranks: receive, add my rank, forward to (rank+1) mod n
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

JobSpec ring_job(const std::string& name, uint32_t nprocs, int rounds = 40,
                 int spin = 20000) {
  JobSpec job;
  job.name = name;
  job.binary = "ring";
  job.nprocs = nprocs;
  (void)rounds;
  (void)spin;
  return job;
}

struct Fixture {
  Cluster cluster;
  explicit Fixture(size_t nodes = 4, ClusterOptions opts = {}) : cluster([&] {
    opts.nodes = nodes;
    return opts;
  }()) {
    // ~5 ms of compute per rank per round: the 40-round job runs ~210 ms of
    // virtual time, so periodic checkpoints (50-70 ms) fire several times.
    cluster.registry().register_vm("ring", ring_program(40, 100000));
    cluster.boot();
  }
};

int64_t expected_ring_token(uint32_t n, int rounds) {
  int64_t per_round = 0;
  for (uint32_t r = 1; r < n; ++r) per_round += r;
  return per_round * rounds;
}

bool output_contains(const std::vector<std::string>& lines, const std::string& needle) {
  return std::any_of(lines.begin(), lines.end(),
                     [&](const std::string& l) { return l.find(needle) != std::string::npos; });
}

// ----------------------------------------------------------- basic run ----

TEST(ClusterRun, VmRingCompletesWithCorrectResult) {
  Fixture f(4);
  f.cluster.submit(ring_job("job1", 4));
  ASSERT_TRUE(f.cluster.run_until_done("job1"));
  auto out = f.cluster.output("job1");
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(output_contains(out, std::to_string(expected_ring_token(4, 40))));
}

TEST(ClusterRun, SingleProcessJob) {
  Fixture f(2);
  f.cluster.submit(ring_job("solo", 1));
  ASSERT_TRUE(f.cluster.run_until_done("solo"));
}

TEST(ClusterRun, MoreRanksThanNodesColocates) {
  Fixture f(2);
  f.cluster.submit(ring_job("big", 5));
  ASSERT_TRUE(f.cluster.run_until_done("big"));
  EXPECT_TRUE(output_contains(f.cluster.output("big"), std::to_string(expected_ring_token(5, 40))));
}

TEST(ClusterRun, NativeAppWithCollectives) {
  Fixture f(3);
  f.cluster.registry().register_native("sum", [](AppContext& ctx) {
    auto total = ctx.world().allreduce(
        std::vector<int64_t>{static_cast<int64_t>(ctx.rank() + 1)}, mpi::ReduceOp::kSum);
    if (ctx.rank() == 0) ctx.print("total=" + std::to_string(total[0]));
  });
  JobSpec job;
  job.name = "sumjob";
  job.binary = "sum";
  job.nprocs = 3;
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("sumjob"));
  EXPECT_TRUE(output_contains(f.cluster.output("sumjob"), "total=6"));
}

TEST(ClusterRun, UnknownBinaryFails) {
  Fixture f(2);
  JobSpec job;
  job.name = "ghost";
  job.binary = "no-such-binary";
  job.nprocs = 2;
  f.cluster.submit(job);
  EXPECT_FALSE(f.cluster.run_until_done("ghost", seconds(10.0)));
  EXPECT_EQ(f.cluster.phase("ghost"), AppPhase::kFailed);
}

TEST(ClusterRun, TwoConcurrentApps) {
  Fixture f(4);
  f.cluster.submit(ring_job("a", 3));
  f.cluster.submit(ring_job("b", 4));
  ASSERT_TRUE(f.cluster.run_until_done("a"));
  ASSERT_TRUE(f.cluster.run_until_done("b"));
  EXPECT_TRUE(output_contains(f.cluster.output("a"), std::to_string(expected_ring_token(3, 40))));
  EXPECT_TRUE(output_contains(f.cluster.output("b"), std::to_string(expected_ring_token(4, 40))));
}

// ------------------------------------------------------- checkpointing ----

TEST(Checkpointing, StopAndSyncCommitsEpochs) {
  Fixture f(4);
  auto job = ring_job("ck", 4);
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(60);
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("ck"));
  auto committed = f.cluster.store().latest_committed("ck");
  ASSERT_TRUE(committed.has_value());
  EXPECT_GE(*committed, 1u);
  EXPECT_TRUE(output_contains(f.cluster.output("ck"), std::to_string(expected_ring_token(4, 40))));
}

TEST(Checkpointing, KillPolicyStopsAppOnCrash) {
  Fixture f(4);
  auto job = ring_job("frail", 4);
  job.policy = FtPolicy::kKill;
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(30));
  f.cluster.crash_node(2);
  EXPECT_FALSE(f.cluster.run_until_done("frail", seconds(20.0)));
  EXPECT_EQ(f.cluster.phase("frail"), AppPhase::kFailed);
}

TEST(Checkpointing, RestartFromStopAndSyncCheckpointAfterCrash) {
  Fixture f(4);
  auto job = ring_job("phoenix", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(50);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(130));  // let a couple of checkpoints commit
  ASSERT_TRUE(f.cluster.store().latest_committed("phoenix").has_value());
  f.cluster.crash_node(3);
  ASSERT_TRUE(f.cluster.run_until_done("phoenix"));
  // The result is exactly right despite the mid-run crash and rollback.
  EXPECT_TRUE(
      output_contains(f.cluster.output("phoenix"), std::to_string(expected_ring_token(4, 40))));
  EXPECT_GE(f.cluster.daemon_at(0).restarts_performed(), 1u);
}

TEST(Checkpointing, RestartWithoutAnyCheckpointRestartsFromScratch) {
  Fixture f(3);
  auto job = ring_job("fresh", 3);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = 0;  // no system checkpoints
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(40));
  f.cluster.crash_node(2);
  ASSERT_TRUE(f.cluster.run_until_done("fresh"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("fresh"), std::to_string(expected_ring_token(3, 40))));
}

TEST(Checkpointing, ChandyLamportDoesNotBlockTheApplication) {
  Fixture f(4);
  auto job = ring_job("cl", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kChandyLamport;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(60);
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("cl"));
  auto committed = f.cluster.store().latest_committed("cl");
  ASSERT_TRUE(committed.has_value());
  EXPECT_GE(*committed, 1u);
  EXPECT_TRUE(output_contains(f.cluster.output("cl"), std::to_string(expected_ring_token(4, 40))));
}

TEST(Checkpointing, ChandyLamportRestartAfterCrash) {
  Fixture f(4);
  auto job = ring_job("clr", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kChandyLamport;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(50);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(130));
  f.cluster.crash_node(1);
  ASSERT_TRUE(f.cluster.run_until_done("clr"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("clr"), std::to_string(expected_ring_token(4, 40))));
}

TEST(Checkpointing, UncoordinatedRestartUsesRecoveryLine) {
  Fixture f(4);
  auto job = ring_job("unco", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kUncoordinated;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(70);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(250));
  f.cluster.crash_node(2);
  ASSERT_TRUE(f.cluster.run_until_done("unco"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("unco"), std::to_string(expected_ring_token(4, 40))));
}

TEST(Checkpointing, NativeLevelHomogeneousRestart) {
  // Pure-compute native app: state hooks make it restartable.
  Fixture f(3);
  f.cluster.registry().register_native("worker", [](AppContext& ctx) {
    int64_t i = 0;
    ctx.set_state_restore([&](const util::Bytes& b) {
      util::Reader r(util::as_bytes_view(b));
      i = r.i64().value_or(0);
    });
    ctx.set_state_capture([&] {
      util::Bytes b;
      util::Writer w(b);
      w.i64(i);
      return b;
    });
    while (i < 20) {
      ctx.compute(milliseconds(10));
      ++i;
    }
    ctx.print("rank" + std::to_string(ctx.rank()) + " finished at " + std::to_string(i));
  });
  JobSpec job;
  job.name = "nat";
  job.binary = "worker";
  job.nprocs = 3;
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kNative;
  job.ckpt_interval = milliseconds(40);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(120));
  f.cluster.crash_node(1);
  ASSERT_TRUE(f.cluster.run_until_done("nat"));
  auto out = f.cluster.output("nat");
  int finished = 0;
  for (const auto& line : out) {
    if (line.find("finished at 20") != std::string::npos) ++finished;
  }
  EXPECT_GE(finished, 3);
}

// ------------------------------------------------ dynamicity / notify ----

TEST(Dynamicity, NotifyPolicyRepartitionsWork) {
  // The paper's trivially-parallel pattern: work units are repartitioned
  // over the surviving ranks after a failure (section 3.2.2).
  constexpr int kUnits = 30;
  Fixture f(4);
  f.cluster.registry().register_native("partition", [](AppContext& ctx) {
    constexpr int kResultTag = 1;
    constexpr int kDoneTag = 2;
    if (ctx.rank() == 0) {
      // Collector: gather every unit's result (workers may resend after a
      // view change; dedupe by unit id), then dismiss the workers.
      std::vector<int64_t> results(kUnits, -1);
      int have = 0;
      while (have < kUnits) {
        auto data = ctx.world().recv(mpi::kAnySource, kResultTag);
        util::Reader r(util::as_bytes_view(data));
        const int64_t unit = r.i64().value_or(0);
        const int64_t value = r.i64().value_or(0);
        if (results[static_cast<size_t>(unit)] < 0) {
          results[static_cast<size_t>(unit)] = value;
          ++have;
        }
      }
      int64_t total = 0;
      for (auto v : results) total += v;
      ctx.print("sum=" + std::to_string(total));
      for (uint32_t r = 1; r < ctx.size(); ++r) {
        ctx.world().send(static_cast<int>(r), kDoneTag, {});
      }
      return;
    }
    // Workers: compute the units assigned to me under the current live set;
    // a view change re-partitions (we conservatively resend everything). A
    // worker never exits on its own — failure detection may lag the crash,
    // so it idles until a new view or the collector's DONE arrives.
    std::vector<uint32_t> live;
    for (uint32_t i = 0; i < ctx.size(); ++i) live.push_back(i);
    bool changed = false;
    ctx.set_view_handler([&](const std::vector<uint32_t>& now_live) {
      live = now_live;
      changed = true;
    });
    for (;;) {
      changed = false;
      // Workers = live ranks except the collector.
      std::vector<uint32_t> workers;
      for (uint32_t r : live) {
        if (r != 0) workers.push_back(r);
      }
      auto me = std::find(workers.begin(), workers.end(), ctx.rank());
      if (me != workers.end()) {
        const size_t my_index = static_cast<size_t>(me - workers.begin());
        for (int unit = 0; unit < kUnits; ++unit) {
          if (static_cast<size_t>(unit) % workers.size() != my_index) continue;
          ctx.compute(milliseconds(5));
          if (changed) break;  // repartition and start over
          util::Bytes b;
          util::Writer w(b);
          w.i64(unit);
          w.i64(unit * unit);
          ctx.world().send(0, kResultTag, std::move(b));
        }
      }
      // Pass complete: idle until repartitioned or dismissed.
      while (!changed) {
        if (ctx.world().proc().iprobe(ctx.world().id(), 0, kDoneTag)) {
          (void)ctx.world().recv(0, kDoneTag);
          return;
        }
        ctx.compute(milliseconds(10));
      }
    }
  });
  JobSpec job;
  job.name = "dyn";
  job.binary = "partition";
  job.nprocs = 4;
  job.policy = FtPolicy::kNotifyViews;
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(40));
  f.cluster.crash_node(2);  // kills one worker mid-computation
  // Rank 0 finishes once every unit arrived; workers finish after their pass.
  f.cluster.run_for(seconds(5.0));
  int64_t expect = 0;
  for (int u = 0; u < kUnits; ++u) expect += static_cast<int64_t>(u) * u;
  EXPECT_TRUE(output_contains(f.cluster.output("dyn"), "sum=" + std::to_string(expect)));
}

// --------------------------------------------------- mgmt & lifecycle ----

TEST(Management, LoginSubmitStatusViaAsciiProtocol) {
  Fixture f(3);
  auto replies = f.cluster.client_session(
      0, {"LOGIN alice secret USER", "SUBMIT mj ring 3 PROTOCOL=sync INTERVAL_MS=100",
          "PS", "STATUS mj"});
  ASSERT_GE(replies.size(), 5u);
  EXPECT_NE(replies[0].find("STARFISH"), std::string::npos);
  EXPECT_EQ(replies[1], "OK session user");
  EXPECT_EQ(replies[2], "OK submitted mj");
  EXPECT_NE(replies[3].find("mj"), std::string::npos);
  EXPECT_NE(replies[4].find("phase="), std::string::npos);
  ASSERT_TRUE(f.cluster.run_until_done("mj"));
}

TEST(Management, AdminRequiredForClusterConfig) {
  Fixture f(2);
  auto replies = f.cluster.client_session(
      0, {"LOGIN bob whatever USER", "SET scheduler fifo", "NODE DISABLE 1"});
  EXPECT_EQ(replies[2], "ERR management session required");
  EXPECT_EQ(replies[3], "ERR management session required");

  auto admin = f.cluster.client_session(
      1, {"LOGIN root starfish ADMIN", "SET scheduler fifo", "GET scheduler", "NODES"});
  EXPECT_EQ(admin[1], "OK session management");
  EXPECT_EQ(admin[2], "OK set requested");
  // The SET is a totally ordered broadcast; give it a moment, then re-read.
  f.cluster.run_for(milliseconds(20));
  auto check = f.cluster.client_session(0, {"LOGIN root starfish ADMIN", "GET scheduler"});
  EXPECT_EQ(check[2], "OK fifo");
}

TEST(Management, BadLoginAndUnknownCommands) {
  Fixture f(2);
  auto replies = f.cluster.client_session(
      0, {"PS", "LOGIN root wrongpw ADMIN", "LOGIN u p USER", "FLY", "STATUS nope"});
  EXPECT_EQ(replies[1], "ERR login first");
  EXPECT_EQ(replies[2], "ERR bad admin credentials");
  EXPECT_EQ(replies[3], "OK session user");
  EXPECT_NE(replies[4].find("ERR unknown command"), std::string::npos);
  EXPECT_EQ(replies[5], "ERR no such job");
}

TEST(Management, OwnershipEnforcedOnDelete) {
  Fixture f(2);
  auto a = f.cluster.client_session(0, {"LOGIN alice x USER", "SUBMIT owned ring 2"});
  EXPECT_EQ(a[2], "OK submitted owned");
  f.cluster.run_for(milliseconds(50));
  auto b = f.cluster.client_session(1, {"LOGIN mallory x USER", "DELETE owned"});
  EXPECT_EQ(b[2], "ERR not your job");
  auto c = f.cluster.client_session(1, {"LOGIN root starfish ADMIN", "DELETE owned"});
  EXPECT_EQ(c[2], "OK delete requested");
  f.cluster.run_for(milliseconds(100));
  EXPECT_EQ(f.cluster.phase("owned"), AppPhase::kDeleted);
}

TEST(Management, DisabledNodeExcludedFromPlacement) {
  Fixture f(3);
  f.cluster.daemon_at(0).node_ctl(2, false);
  f.cluster.run_for(milliseconds(20));
  f.cluster.submit(ring_job("placed", 3));
  f.cluster.run_for(milliseconds(50));
  EXPECT_TRUE(f.cluster.daemon_at(2).local_ranks("placed").empty());
  // Nodes 0 and 1 host all three ranks between them.
  EXPECT_EQ(f.cluster.daemon_at(0).local_ranks("placed").size() +
                f.cluster.daemon_at(1).local_ranks("placed").size(),
            3u);
  ASSERT_TRUE(f.cluster.run_until_done("placed"));
}

TEST(Lifecycle, SuspendPausesAndResumeFinishes) {
  Fixture f(3);
  f.cluster.submit(ring_job("nap", 3));
  f.cluster.run_for(milliseconds(30));
  f.cluster.daemon_at(0).suspend_app("nap");
  f.cluster.run_for(seconds(2.0));
  EXPECT_EQ(f.cluster.phase("nap"), AppPhase::kSuspended);
  f.cluster.daemon_at(1).resume_app("nap");
  ASSERT_TRUE(f.cluster.run_until_done("nap"));
  EXPECT_TRUE(output_contains(f.cluster.output("nap"), std::to_string(expected_ring_token(3, 40))));
}

TEST(Lifecycle, VmTrapReportsFailure) {
  Fixture f(2);
  f.cluster.registry().register_vm("crash", R"(
func main 0 0
  push_int 1
  push_int 0
  div
  halt
)");
  JobSpec job;
  job.name = "boom";
  job.binary = "crash";
  job.nprocs = 2;
  job.policy = FtPolicy::kKill;
  f.cluster.submit(job);
  EXPECT_FALSE(f.cluster.run_until_done("boom", seconds(10.0)));
  EXPECT_EQ(f.cluster.phase("boom"), AppPhase::kFailed);
}

TEST(Lifecycle, DeterministicTrapExhaustsRestartCap) {
  Fixture f(2);
  f.cluster.registry().register_vm("crash2", R"(
func main 0 0
  push_int 100
  syscall sleep_ms
  push_int 1
  push_int 0
  div
  halt
)");
  JobSpec job;
  job.name = "loopy";
  job.binary = "crash2";
  job.nprocs = 1;
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  f.cluster.submit(job);
  EXPECT_FALSE(f.cluster.run_until_done("loopy", seconds(30.0)));
  EXPECT_EQ(f.cluster.phase("loopy"), AppPhase::kFailed);
}

// ------------------------------------------------------- heterogeneity ----

TEST(Heterogeneous, VmLevelCheckpointRestoresAcrossRepresentations) {
  // Mixed cluster: rank placement after the crash moves work onto machines
  // with different endianness/word size; VM-level images convert.
  ClusterOptions opts;
  auto machines = sim::table2_machines();
  opts.machines = {machines[0], machines[1], machines[5], machines[2]};  // LE32, BE32, LE64, BE32
  Fixture f(4, opts);
  auto job = ring_job("hetero", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(50);
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(130));
  f.cluster.crash_node(0);  // the little-endian 32-bit node dies
  ASSERT_TRUE(f.cluster.run_until_done("hetero"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("hetero"), std::to_string(expected_ring_token(4, 40))));
}

TEST(Heterogeneous, NativeLevelRefusesCrossRepresentationRestore) {
  // Same scenario at the native level: rank 0's image was written on a
  // little-endian 32-bit machine; after the crash it is placed on a machine
  // with a different representation and the restore must fail (homogeneous
  // restriction), eventually failing the app.
  ClusterOptions opts;
  auto machines = sim::table2_machines();
  opts.machines = {machines[0], machines[1], machines[1], machines[1]};  // LE32 + 3x BE32
  Fixture f(4, opts);
  auto job = ring_job("homonly", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kNative;
  job.ckpt_interval = milliseconds(50);
  f.cluster.submit(job);
  // Native dumps take ~105 ms per image plus per-member sync, so the first
  // commit lands ~200 ms in.
  f.cluster.run_for(milliseconds(208));
  ASSERT_TRUE(f.cluster.store().latest_committed("homonly").has_value());
  f.cluster.crash_node(0);
  EXPECT_FALSE(f.cluster.run_until_done("homonly", seconds(30.0)));
  EXPECT_EQ(f.cluster.phase("homonly"), AppPhase::kFailed);
}

// ----------------------------------------------------------- object bus ----

TEST(ObjectBus, FanOutToMultipleListeners) {
  ObjectBus bus;
  int a = 0, b = 0;
  bus.subscribe(EventKind::kCoord, [&](const Event&) { ++a; });
  bus.subscribe(EventKind::kCoord, [&](const Event&) { ++b; });
  bus.subscribe(EventKind::kAppView, [&](const Event&) { a += 100; });
  Event e{EventKind::kCoord, {}, 0};
  bus.post(e);
  EXPECT_EQ(a, 1);  // the kAppView listener did not fire
  EXPECT_EQ(b, 1);
  EXPECT_EQ(bus.events_posted(), 1u);
}

TEST(ObjectBus, PostWithNoListenersIsHarmless) {
  ObjectBus bus;
  Event e{EventKind::kTerminate, {}, 0};
  bus.post(e);
  EXPECT_EQ(bus.events_posted(), 0u);  // nothing delivered, nothing counted
}

TEST(ObjectBus, ListenerMaySubscribeDuringDispatch) {
  ObjectBus bus;
  int late = 0;
  bus.subscribe(EventKind::kResume, [&](const Event&) {
    bus.subscribe(EventKind::kResume, [&](const Event&) { ++late; });
  });
  Event e{EventKind::kResume, {}, 0};
  bus.post(e);  // must not invalidate iteration
  EXPECT_EQ(late, 0);
  bus.post(e);  // the late listener fires from now on
  EXPECT_EQ(late, 1);
}

TEST(ObjectBus, EventCarriesValueAndLinkPayload) {
  ObjectBus bus;
  uint64_t seen_value = 0;
  std::string seen_text;
  bus.subscribe(EventKind::kCheckpointDone, [&](const Event& ev) {
    seen_value = ev.value;
    seen_text = ev.link.text;
  });
  Event e;
  e.kind = EventKind::kCheckpointDone;
  e.value = 42;
  e.link.text = "epoch info";
  bus.post(e);
  EXPECT_EQ(seen_value, 42u);
  EXPECT_EQ(seen_text, "epoch info");
}

// ------------------------------------------------- VM collective syscalls ----

TEST(VmCollectives, BarrierAndAllreduceSyscalls) {
  Fixture f(3);
  f.cluster.registry().register_vm("collect", R"(
func main 0 0
  syscall barrier
  syscall rank
  push_int 1
  add
  syscall allreduce_sum
  syscall rank
  push_int 0
  eq
  jmp_if_false skip
  syscall print
  halt
skip:
  pop
  halt
)");
  JobSpec job;
  job.name = "vmcol";
  job.binary = "collect";
  job.nprocs = 3;
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("vmcol"));
  EXPECT_TRUE(output_contains(f.cluster.output("vmcol"), "6"));  // 1+2+3
}

// ------------------------------------------- forked & incremental C/R ----

TEST(ForkedCheckpoint, CutsBlockingTimeAndStillRestores) {
  // libckpt-style copy-on-write checkpointing: the app resumes right after
  // the in-memory snapshot; with plain stop-and-sync it stays frozen for
  // the whole disk write. Completion time difference shows the win.
  auto run_ring = [](bool forked) {
    Fixture f(4);
    auto job = ring_job("fk", 4);
    job.policy = FtPolicy::kRestart;
    job.protocol = CrProtocol::kStopAndSync;
    job.level = CkptLevel::kVm;
    job.ckpt_interval = milliseconds(60);
    job.forked_ckpt = forked;
    f.cluster.submit(job);
    EXPECT_TRUE(f.cluster.run_until_done("fk"));
    EXPECT_TRUE(
        output_contains(f.cluster.output("fk"), std::to_string(expected_ring_token(4, 40))));
    return sim::to_seconds(f.cluster.engine().now());
  };
  const double plain = run_ring(false);
  const double forked = run_ring(true);
  EXPECT_LT(forked, plain);  // less time spent frozen
}

TEST(ForkedCheckpoint, RestartFromForkedEpochIsCorrect) {
  Fixture f(4);
  auto job = ring_job("fkr", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(50);
  job.forked_ckpt = true;
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(130));
  ASSERT_TRUE(f.cluster.store().latest_committed("fkr").has_value());
  f.cluster.crash_node(2);
  ASSERT_TRUE(f.cluster.run_until_done("fkr"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("fkr"), std::to_string(expected_ring_token(4, 40))));
}

TEST(IncrementalCheckpoint, WritesFewerBytesForSparseState) {
  // A native app with a large, mostly-static state: incremental images
  // should write far fewer bytes than full images.
  auto run = [](bool incremental) {
    Fixture f(2);
    f.cluster.registry().register_native("sparse", [](AppContext& ctx) {
      util::Bytes state(1024 * 1024, std::byte{0});
      int64_t step = 0;
      ctx.set_state_capture([&] { return state; });
      ctx.set_state_restore([&](const util::Bytes& b) {
        state = b;
        util::Reader r(util::as_bytes_view(state));
        step = r.i64().value_or(0);
      });
      while (step < 120) {
        ctx.compute(milliseconds(10));
        ++step;
        util::Bytes head;
        util::Writer w(head);
        w.i64(step);  // only the first few bytes of the state mutate
        std::copy(head.begin(), head.end(), state.begin());
      }
    });
    JobSpec job;
    job.name = "sp";
    job.binary = "sparse";
    job.nprocs = 2;
    job.protocol = CrProtocol::kStopAndSync;
    job.level = CkptLevel::kNative;
    job.ckpt_interval = milliseconds(40);
    job.incremental_ckpt = incremental;
    f.cluster.submit(job);
    EXPECT_TRUE(f.cluster.run_until_done("sp", seconds(60.0)));
    return f.cluster.store().bytes_written();
  };
  const uint64_t full = run(false);
  const uint64_t incr = run(true);
  EXPECT_LT(incr, full / 2);
}

TEST(IncrementalCheckpoint, RestoreFromDeltaEpochResolvesChain) {
  Fixture f(3);
  auto job = ring_job("inc", 3);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  job.ckpt_interval = milliseconds(40);
  job.incremental_ckpt = true;
  f.cluster.submit(job);
  // Let several epochs commit so the latest is (almost surely) a delta.
  f.cluster.run_for(milliseconds(200));
  auto committed = f.cluster.store().latest_committed("inc");
  ASSERT_TRUE(committed.has_value());
  EXPECT_GE(*committed, 2u);
  f.cluster.crash_node(1);
  ASSERT_TRUE(f.cluster.run_until_done("inc"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("inc"), std::to_string(expected_ring_token(3, 40))));
}

// Native app for the incremental write-path tests: kStripeStateBytes of
// state whose first 8 bytes are the step counter. Every 10 ms step rewrites
// one 64-byte stripe on each of two (rank, step)-chosen pages, so a delta
// epoch carries a few dirty pages out of 64. Prints its final-state
// fingerprint. The capture hook shares ownership of the state: a checkpoint
// wave can still capture a rank whose body has already returned.
constexpr size_t kStripeStateBytes = 64 * ckpt::kPageBytes;

void stripe_writer(AppContext& ctx, int64_t steps) {
  auto owned = std::make_shared<util::Bytes>(kStripeStateBytes, std::byte{0});
  util::Bytes& state = *owned;
  auto step_of = [&] {
    int64_t s = 0;
    std::memcpy(&s, state.data(), sizeof s);
    return s;
  };
  ctx.set_state_capture([owned] { return *owned; });
  ctx.set_state_restore([&](const util::Bytes& b) { state = b; });
  while (step_of() < steps) {
    ctx.compute(milliseconds(10));
    const int64_t s = step_of() + 1;
    for (uint64_t j = 0; j < 2; ++j) {
      const uint64_t d = (uint64_t{ctx.rank()} + 1) * 0x9E3779B97F4A7C15ull ^
                         (static_cast<uint64_t>(s) * 2 + j) * 0xC2B2AE3D27D4EB4Full;
      const size_t page = 1 + d % (kStripeStateBytes / ckpt::kPageBytes - 1);
      const size_t off = page * ckpt::kPageBytes + (d >> 20) % (ckpt::kPageBytes - 64);
      std::memset(state.data() + off, static_cast<int>(d >> 8) & 0xff, 64);
    }
    std::memcpy(state.data(), &s, sizeof s);
  }
  ctx.print("fp " + std::to_string(ctx.rank()) + " " +
            std::to_string(ckpt::page_fingerprint(util::as_bytes_view(state))));
}

JobSpec stripe_job(const std::string& name, uint32_t nprocs) {
  JobSpec job;
  job.name = name;
  job.binary = "stripes";
  job.nprocs = nprocs;
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kNative;
  job.ckpt_interval = milliseconds(40);
  job.incremental_ckpt = true;
  return job;
}

TEST(IncrementalCheckpoint, NativeCrashAfterDeltaEpochRestoresAndTakesMoreDeltas) {
  auto run = [](bool crash) {
    Fixture f(3);
    f.cluster.registry().register_native("stripes",
                                         [](AppContext& ctx) { stripe_writer(ctx, 100); });
    const JobSpec job = stripe_job("stripes", 3);
    f.cluster.submit(job);
    uint64_t restored_epoch = 0;
    if (crash) {
      // Run until the recovery line is a delta epoch, then kill a rank's node:
      // the restart resolves full image + deltas and must keep taking deltas.
      for (int i = 0; i < 400; ++i) {
        f.cluster.run_for(milliseconds(5));
        auto c = f.cluster.store().latest_committed("stripes");
        if (c && *c >= 2 && !ckpt::is_full_epoch(*c)) {
          restored_epoch = *c;
          break;
        }
      }
      EXPECT_NE(restored_epoch, 0u) << "no delta epoch committed";
      f.cluster.crash_node(1);
    }
    EXPECT_TRUE(f.cluster.run_until_done("stripes"));
    if (crash) {
      auto last = f.cluster.store().latest_committed("stripes");
      EXPECT_TRUE(last.has_value());
      int deltas_after = 0;
      for (uint64_t e = restored_epoch + 1; last && e <= *last; ++e) {
        if (!ckpt::is_full_epoch(e)) ++deltas_after;
      }
      EXPECT_GE(deltas_after, 2) << "restored at " << restored_epoch;
      // The newest epoch's chain is retained, and every non-full link was
      // stored as a delta: its file is the incremental base plus a few dirty
      // pages, far below a full native dump.
      for (uint64_t e = ckpt::last_full_at_or_before(*last); last && e <= *last; ++e) {
        const auto bytes = f.cluster.store().file_bytes(ckpt::CkptKey{"stripes", 0, e});
        EXPECT_EQ(bytes.value_or(0) < ckpt::kNativeBaseBytes, !ckpt::is_full_epoch(e))
            << "epoch " << e;
        EXPECT_TRUE(bytes.has_value()) << "epoch " << e;
      }
    }
    auto out = f.cluster.output("stripes");
    std::vector<std::string> fps;
    for (const auto& line : out) {
      if (line.find("fp ") != std::string::npos) fps.push_back(line);
    }
    std::sort(fps.begin(), fps.end());
    return fps;
  };
  const auto clean = run(false);
  ASSERT_EQ(clean.size(), 3u);
  EXPECT_EQ(run(true), clean);
}

TEST(IncrementalCheckpoint, PayloadBytesAreWrittenOnceIntoExactBuffers) {
  // One rank, so every stored image is one epoch: per image, the C/R module
  // writes the captured state (full) or its dirty pages (delta) plus the
  // container and delta headers into the payload, once, into a buffer
  // allocated at exactly that size.
  obs::Hub hub;
  Fixture f(1);
  f.cluster.engine().set_obs(&hub);
  f.cluster.registry().register_native("stripes",
                                       [](AppContext& ctx) { stripe_writer(ctx, 120); });
  f.cluster.submit(stripe_job("solo", 1));
  auto counter = [&](const char* name) { return hub.metrics.counter(name).value(); };
  uint64_t taken = 0, copied = 0, allocated = 0, dirty = 0;
  uint64_t full_headers = 0;
  int fulls = 0, deltas = 0;
  for (int i = 0; i < 2000 && f.cluster.phase("solo") != AppPhase::kCompleted; ++i) {
    f.cluster.run_for(milliseconds(1));
    if (counter("ckpt.checkpoints_taken") == taken) continue;
    ASSERT_EQ(counter("ckpt.checkpoints_taken"), taken + 1);
    ++taken;
    const uint64_t c = counter("ckpt.bytes_copied") - copied;
    const uint64_t a = counter("ckpt.bytes_allocated") - allocated;
    const uint64_t d = counter("ckpt.pages_dirty") - dirty;
    copied += c;
    allocated += a;
    dirty += d;
    EXPECT_EQ(a, c) << "image " << taken << " payload buffer not exactly sized";
    if (ckpt::is_full_epoch(taken)) {
      ++fulls;
      ASSERT_GE(c, kStripeStateBytes);
      full_headers = c - kStripeStateBytes;  // container framing + tracker + channel
      EXPECT_LE(full_headers, 64u);
    } else {
      ++deltas;
      EXPECT_GT(d, 0u);
      EXPECT_LT(d, kStripeStateBytes / ckpt::kPageBytes);
      // Delta header (u64 length + u32 count) and a u32 index + u32 length
      // per page, inside the same container as the full epoch.
      EXPECT_EQ(c, d * ckpt::kPageBytes + 12 + 8 * d + full_headers) << "image " << taken;
    }
  }
  EXPECT_EQ(f.cluster.phase("solo"), AppPhase::kCompleted);
  EXPECT_GE(fulls, 2);
  EXPECT_GE(deltas, 4);
}

TEST(NativeHooks, CaptureHookIsDroppedWhenTheBodyReturns) {
  // The usual idiom: the capture hook captures a stack local by reference.
  // This 1-rank body ends within 3 epochs, so the checkpoint wave under way
  // when it returns reaches a rank whose frame is gone. The runtime must
  // drop the hook with the body instead of calling into the dead frame.
  obs::Hub hub;
  Fixture f(1);
  f.cluster.engine().set_obs(&hub);
  bool returned = false;
  int calls_after_return = 0;
  uint64_t stored_at_return = 0;
  uint64_t written_at_return = 0;
  f.cluster.registry().register_native("brief", [&](AppContext& ctx) {
    util::Bytes state(kStripeStateBytes, std::byte{0});
    ctx.set_state_capture([&] {
      if (returned) ++calls_after_return;
      return state;
    });
    ctx.set_state_restore([&](const util::Bytes& b) { state = b; });
    for (size_t step = 0; step < 40; ++step) {
      ctx.compute(milliseconds(10));
      state[step * ckpt::kPageBytes % kStripeStateBytes] = std::byte{1};
    }
    stored_at_return = f.cluster.store().latest_stored("solo", 0).value_or(0);
    written_at_return = hub.metrics.counter("ckpt.bytes_copied").value();
    returned = true;
  });
  JobSpec job = stripe_job("solo", 1);
  job.binary = "brief";
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("solo", seconds(60.0)));
  EXPECT_LE(stored_at_return, 3u) << "the body should end within 3 epochs";
  EXPECT_GT(hub.metrics.counter("ckpt.bytes_copied").value(), written_at_return)
      << "no checkpoint wave reached the rank after its body returned";
  EXPECT_EQ(calls_after_return, 0);
}

// ---------------------------------------------------- MPI-2 dynamic spawn ----

TEST(DynamicSpawn, WorldGrowsAndNewRanksParticipate) {
  // The "dynamic MPI-2 programs" of the paper\'s title: an application asks
  // Starfish for more processes at runtime; the world grows, existing ranks
  // get a view upcall, and a collective over the grown world works.
  Fixture f(4);
  f.cluster.registry().register_native("grower", [](AppContext& ctx) {
    constexpr int kGoTag = 3;
    if (ctx.rank() == 0) {
      ctx.spawn_ranks(2);  // grow 2 -> 4
      while (ctx.size() < 4) ctx.compute(milliseconds(10));
      // Give the spawned ranks a moment to boot, then start the collective.
      for (uint32_t r = 1; r < 4; ++r) ctx.world().send(static_cast<int>(r), kGoTag, {});
      auto sum = ctx.world().allreduce(std::vector<int64_t>{1}, mpi::ReduceOp::kSum);
      ctx.print("members=" + std::to_string(sum[0]));
      return;
    }
    (void)ctx.world().recv(0, kGoTag);
    auto sum = ctx.world().allreduce(std::vector<int64_t>{1}, mpi::ReduceOp::kSum);
    if (ctx.rank() == 3) ctx.print("new-rank-sum=" + std::to_string(sum[0]));
  });
  JobSpec job;
  job.name = "grow";
  job.binary = "grower";
  job.nprocs = 2;
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("grow", seconds(30.0)));
  EXPECT_TRUE(output_contains(f.cluster.output("grow"), "members=4"));
  EXPECT_TRUE(output_contains(f.cluster.output("grow"), "new-rank-sum=4"));
}

TEST(DynamicSpawn, SpawnedRanksVisibleToDaemons) {
  Fixture f(3);
  f.cluster.registry().register_native("grower2", [](AppContext& ctx) {
    if (ctx.rank() == 0) ctx.spawn_ranks(3);  // 2 -> 5 ranks on 3 nodes
    while (ctx.size() < 5) ctx.compute(milliseconds(10));
    ctx.compute(milliseconds(50));
  });
  JobSpec job;
  job.name = "grow2";
  job.binary = "grower2";
  job.nprocs = 2;
  f.cluster.submit(job);
  ASSERT_TRUE(f.cluster.run_until_done("grow2", seconds(30.0)));
  size_t hosted = 0;
  for (size_t i = 0; i < 3; ++i) hosted += f.cluster.daemon_at(i).local_ranks("grow2").size();
  EXPECT_EQ(hosted, 5u);
}

// ------------------------------------------------------------ migration ----

TEST(Migration, RankMovesToIdleNodeAndFinishes) {
  // Paper section 3.2.1: C/R lets Starfish migrate a process, e.g. when a
  // better node becomes available. Rank 1 moves from node 1 to the idle
  // node 4 mid-run; the job still produces the exact result.
  Fixture f(5);
  auto job = ring_job("mover", 4);  // nodes 0-3 host ranks; node 4 idle
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(60));
  EXPECT_EQ(f.cluster.daemon_at(1).local_ranks("mover"), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(f.cluster.daemon_at(4).local_ranks("mover").empty());

  f.cluster.daemon_at(1).migrate("mover", 1, 4);
  ASSERT_TRUE(f.cluster.run_until_done("mover"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("mover"), std::to_string(expected_ring_token(4, 40))));
  // The rank really moved.
  EXPECT_EQ(f.cluster.daemon_at(4).local_ranks("mover"), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(f.cluster.daemon_at(1).local_ranks("mover").empty());
}

TEST(Migration, MigrationSurvivesLaterCrashOfOldNode) {
  // After rank 1 leaves node 1, killing node 1 must not disturb the app.
  Fixture f(5);
  auto job = ring_job("mover2", 4);
  job.policy = FtPolicy::kRestart;
  job.protocol = CrProtocol::kStopAndSync;
  job.level = CkptLevel::kVm;
  f.cluster.submit(job);
  f.cluster.run_for(milliseconds(60));
  f.cluster.daemon_at(1).migrate("mover2", 1, 4);
  f.cluster.run_for(milliseconds(120));  // checkpoint + move complete
  const uint32_t restarts_before = f.cluster.daemon_at(0).restarts_performed();
  f.cluster.crash_node(1);
  ASSERT_TRUE(f.cluster.run_until_done("mover2"));
  EXPECT_TRUE(
      output_contains(f.cluster.output("mover2"), std::to_string(expected_ring_token(4, 40))));
  // Node 1 hosted nothing anymore, so no restart was needed.
  EXPECT_EQ(f.cluster.daemon_at(0).restarts_performed(), restarts_before);
}

// ---------------------------------------------------------- dynamicity ----

TEST(Dynamicity, NodeAddedAtRuntimeJoinsCluster) {
  Fixture f(2);
  f.cluster.run_for(milliseconds(50));
  f.cluster.add_node();
  f.cluster.run_for(seconds(1.0));
  EXPECT_EQ(f.cluster.daemon_at(0).group().view().size(), 3u);
  EXPECT_EQ(f.cluster.daemon_at(2).group().view().size(), 3u);
  // The newcomer is schedulable.
  f.cluster.submit(ring_job("after-add", 3));
  ASSERT_TRUE(f.cluster.run_until_done("after-add"));
  EXPECT_FALSE(f.cluster.daemon_at(2).local_ranks("after-add").empty());
}

// ------------------------------------------------------------ teardown ----

/// Counts live instances. Each native rank holds one, with a 1 MB heap
/// buffer, across its blocking calls: a count above zero after teardown
/// means a fiber's frame was abandoned instead of unwound.
struct LiveProbe {
  static inline int live = 0;
  std::vector<uint8_t> buffer = std::vector<uint8_t>(1 << 20);
  LiveProbe() { ++live; }
  ~LiveProbe() { --live; }
  LiveProbe(const LiveProbe&) = delete;
  LiveProbe& operator=(const LiveProbe&) = delete;
};

constexpr uint32_t kHoldingRanks = 4;

/// A 4-rank native job that would run for ~10 s of virtual time, stopped
/// 300 ms in: every rank is then blocked in compute() or the allreduce.
std::unique_ptr<Cluster> cluster_mid_holding_job() {
  ClusterOptions opts;
  opts.nodes = 4;
  auto cluster = std::make_unique<Cluster>(opts);
  cluster->registry().register_native("hold", [](AppContext& ctx) {
    LiveProbe probe;
    for (int i = 0; i < 1000; ++i) {
      ctx.compute(milliseconds(10));
      ctx.world().allreduce(std::vector<int64_t>{probe.buffer[0]}, mpi::ReduceOp::kSum);
    }
  });
  JobSpec job;
  job.name = "hold";
  job.binary = "hold";
  job.nprocs = kHoldingRanks;
  cluster->submit(job);
  cluster->run_for(milliseconds(300));
  return cluster;
}

TEST(Teardown, DestroyingAMidJobClusterUnwindsEveryRank) {
  LiveProbe::live = 0;
  auto cluster = cluster_mid_holding_job();
  ASSERT_EQ(LiveProbe::live, static_cast<int>(kHoldingRanks));
  cluster.reset();
  EXPECT_EQ(LiveProbe::live, 0);
}

TEST(Teardown, ShutdownReturnsEveryFiberStack) {
  LiveProbe::live = 0;
  auto cluster = cluster_mid_holding_job();
  ASSERT_EQ(LiveProbe::live, static_cast<int>(kHoldingRanks));
  ASSERT_GT(cluster->engine().stack_pool().outstanding(), 0u);
  // The first thing ~Cluster does; called directly so the pool can still
  // be inspected afterwards.
  cluster->engine().shutdown();
  EXPECT_EQ(LiveProbe::live, 0);
  EXPECT_EQ(cluster->engine().stack_pool().outstanding(), 0u);
}

}  // namespace
}  // namespace starfish::core
