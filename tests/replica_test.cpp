// Diskless checkpoint storage (ckpt/replica.hpp): deterministic placement,
// warm re-replication, crash invalidation, commit-after-transfer, recovery
// fallback, and same-seed replay of the replica tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ckpt/replica.hpp"
#include "ckpt/store.hpp"
#include "core/cluster.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace starfish::ckpt {
namespace {

using sim::milliseconds;
using sim::seconds;

// ---------------------------------------------------------- placement ----

TEST(ReplicaPlacement, ExcludesOwnerAndIsDeterministic) {
  const std::vector<sim::HostId> hosts = {0, 1, 2, 3};
  for (uint32_t rank = 0; rank < 4; ++rank) {
    const auto holders = replica_holders(hosts, rank, 2);
    ASSERT_EQ(holders.size(), 2u) << "rank " << rank;
    for (sim::HostId h : holders) {
      EXPECT_NE(h, hosts[rank]) << "rank " << rank << " replicated onto its own host";
    }
    EXPECT_EQ(holders, replica_holders(hosts, rank, 2)) << "placement not a pure function";
  }
}

TEST(ReplicaPlacement, RotatesByRankToSpreadLoad) {
  // Co-located ranks (both on host 0) must not pile their copies on the
  // same successors: the window rotates by rank index.
  const std::vector<sim::HostId> mixed = {0, 0, 1, 2, 3, 4};
  const auto h0 = replica_holders(mixed, 0, 2);
  const auto h1 = replica_holders(mixed, 1, 2);
  ASSERT_EQ(h0.size(), 2u);
  ASSERT_EQ(h1.size(), 2u);
  EXPECT_NE(h0, h1) << "co-located ranks chose identical holder sets";
}

TEST(ReplicaPlacement, CapsAtAvailableHosts) {
  EXPECT_EQ(replica_holders({0, 1}, 0, 3), (std::vector<sim::HostId>{1}));
  EXPECT_EQ(replica_holders({7, 7}, 1, 2), (std::vector<sim::HostId>{7}));  // alone
  EXPECT_TRUE(replica_holders({}, 0, 2).empty());
}

TEST(ReplicaPlacement, IgnoresDeadRanks) {
  const std::vector<sim::HostId> hosts = {0, sim::kInvalidHost, 2};
  const auto holders = replica_holders(hosts, 0, 2);
  EXPECT_EQ(holders, (std::vector<sim::HostId>{2}));
}

// -------------------------------------------------------- store level ----

struct ReplicaFixture {
  sim::Engine eng;
  net::Network net{eng};
  CheckpointStore store{eng};
  explicit ReplicaFixture(uint32_t replication = 2) {
    for (int i = 0; i < 4; ++i) net.add_host("node" + std::to_string(i));
    ReplicaOptions opts;
    opts.replication = replication;
    store.enable_replica_backend(net, opts);
    store.set_backend(CkptBackend::kReplica);
  }
  Image image(size_t pages, std::byte fill = std::byte{7}) const {
    Image img;
    img.kind = ImageKind::kPortable;
    img.payload = util::Bytes(pages * kPageBytes, fill);
    img.file_bytes = kPortableBaseBytes + img.payload.size();
    return img;
  }
};

TEST(ReplicaStoreTest, PutStoresCopiesWithoutTouchingDisk) {
  ReplicaFixture f;
  bool checked = false;
  f.net.host(0)->spawn("writer", [&] {
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, f.image(16), {1, 2});
    EXPECT_TRUE(f.store.contains(CkptKey{"app", 0, 1}));
    auto got = f.store.get(*f.net.host(3), CkptKey{"app", 0, 1});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload.size(), 16 * kPageBytes);
    checked = true;
  });
  f.eng.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(f.store.bytes_written(), 0u) << "replica put touched the disk tier";
  EXPECT_EQ(f.store.image_count(), 0u);
  EXPECT_EQ(f.store.replicas()->entry_count(), 1u);
  EXPECT_GT(f.store.replicas()->bytes_shipped(), 2 * 16 * kPageBytes);
}

TEST(ReplicaStoreTest, WarmRepeatPutShipsOnlyChangedPages) {
  ReplicaFixture f;
  uint64_t cold = 0, warm = 0;
  f.net.host(0)->spawn("writer", [&] {
    Image first = f.image(64);
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, std::move(first), {1, 2});
    cold = f.store.replicas()->bytes_shipped();
    Image second = f.image(64);
    second.payload[5 * kPageBytes] = std::byte{0xAB};  // dirty exactly one page
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 2}, std::move(second), {1, 2});
    warm = f.store.replicas()->bytes_shipped() - cold;
  });
  f.eng.run();
  // Cold: 64 pages + header, per holder. Warm: 1 page + header, per holder.
  EXPECT_EQ(cold, 2 * (kReplicaHeaderBytes + 64 * kPageBytes));
  EXPECT_EQ(warm, 2 * (kReplicaHeaderBytes + 1 * kPageBytes));
}

TEST(ReplicaStoreTest, CrashInvalidatesExactlyTheCopiesTheHostHeld) {
  ReplicaFixture f;
  f.net.host(0)->spawn("writer", [&] {
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, f.image(4), {1, 2});
    f.store.put(*f.net.host(3), CkptKey{"app", 1, 1}, f.image(4), {0, 2});
  });
  f.eng.run();
  ASSERT_EQ(f.store.replicas()->entry_count(), 2u);

  f.net.crash_host(1);  // rank 0 loses one copy, rank 1 none
  EXPECT_TRUE(f.store.contains(CkptKey{"app", 0, 1}));
  EXPECT_TRUE(f.store.contains(CkptKey{"app", 1, 1}));
  EXPECT_TRUE(f.store.replicas()->validate());

  f.net.crash_host(2);  // rank 0's last copy dies; rank 1 survives on host 0
  EXPECT_FALSE(f.store.contains(CkptKey{"app", 0, 1}));
  EXPECT_TRUE(f.store.contains(CkptKey{"app", 1, 1}));
  EXPECT_EQ(f.store.replicas()->entry_count(), 1u);
  EXPECT_TRUE(f.store.replicas()->validate());

  bool checked = false;
  f.net.host(3)->spawn("reader", [&] {
    EXPECT_FALSE(f.store.get(*f.net.host(3), CkptKey{"app", 0, 1}).has_value());
    EXPECT_TRUE(f.store.get(*f.net.host(3), CkptKey{"app", 1, 1}).has_value());
    checked = true;
  });
  f.eng.run();
  EXPECT_TRUE(checked);
  EXPECT_FALSE(f.store.latest_stored("app", 0).has_value());
  EXPECT_EQ(f.store.latest_stored("app", 1), 1u);
}

// Commit-after-transfer: a writer that dies mid-transfer must leave no
// partial copy behind — the in-flight replica never becomes durable.
TEST(ReplicaStoreTest, WriterCrashMidTransferLeavesNoCopy) {
  ReplicaFixture f;
  f.net.host(0)->spawn("writer", [&] {
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, f.image(256), {1, 2});
  });
  // A 1 MB payload takes ~17 ms per copy at BIP rates; kill the writer well
  // inside the transfer.
  f.eng.schedule(milliseconds(1), [&] { f.net.crash_host(0); });
  f.eng.run();
  EXPECT_FALSE(f.store.contains(CkptKey{"app", 0, 1}));
  EXPECT_EQ(f.store.replicas()->entry_count(), 0u);
  EXPECT_EQ(f.store.replicas()->puts_started(), 1u);
  EXPECT_EQ(f.store.replicas()->puts_committed(), 0u);
  EXPECT_TRUE(f.store.replicas()->validate());
}

TEST(ReplicaStoreTest, HolderCrashMidTransferIsDroppedAtInstall) {
  ReplicaFixture f;
  f.net.host(0)->spawn("writer", [&] {
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, f.image(256), {1, 2});
  });
  f.eng.schedule(milliseconds(1), [&] { f.net.crash_host(1); });
  f.eng.run();
  // The transfer completed; only the surviving holder has the copy.
  EXPECT_EQ(f.store.replicas()->puts_committed(), 1u);
  EXPECT_TRUE(f.store.contains(CkptKey{"app", 0, 1}));
  EXPECT_TRUE(f.store.replicas()->validate());
  f.net.crash_host(2);
  EXPECT_FALSE(f.store.contains(CkptKey{"app", 0, 1}))
      << "a holder that died mid-transfer still counted as durable";
}

TEST(ReplicaStoreTest, MetaRidesWithTheEntryAndSharesItsFate) {
  ReplicaFixture f;
  f.net.host(0)->spawn("writer", [&] {
    f.store.put(*f.net.host(0), CkptKey{"u", 0, 1}, f.image(2), {1, 2});
    f.store.put_meta(CkptKey{"u", 0, 1}, util::Bytes(8, std::byte{3}));
  });
  f.eng.run();
  ASSERT_TRUE(f.store.checkpoint_meta(CkptKey{"u", 0, 1}).has_value());
  f.net.crash_host(1);
  f.net.crash_host(2);
  EXPECT_FALSE(f.store.checkpoint_meta(CkptKey{"u", 0, 1}).has_value())
      << "meta outlived every copy of its image";
}

// When every replica copy is lost, recovery must fall back to whatever the
// disk tier holds (images written before the backend switch).
TEST(ReplicaStoreTest, FallsBackToDiskImagesWhenReplicasDie) {
  ReplicaFixture f;
  f.store.set_backend(CkptBackend::kDisk);
  bool checked = false;
  f.net.host(0)->spawn("writer", [&] {
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, f.image(4, std::byte{1}));
    f.store.commit("app", 1);
    f.store.set_backend(CkptBackend::kReplica);
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 2}, f.image(4, std::byte{2}), {1, 2});
    f.store.commit("app", 2);

    EXPECT_EQ(f.store.latest_recoverable("app", 1), 2u);
    f.net.crash_host(1);
    f.net.crash_host(2);
    // Epoch 2's copies are gone; the disk image of epoch 1 still recovers.
    EXPECT_EQ(f.store.latest_recoverable("app", 1), 1u);
    auto got = f.store.get(*f.net.host(0), CkptKey{"app", 0, 1});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload[0], std::byte{1});
    EXPECT_FALSE(f.store.get(*f.net.host(0), CkptKey{"app", 0, 2}).has_value());
    checked = true;
  });
  f.eng.run();
  EXPECT_TRUE(checked);
}

TEST(ReplicaStoreTest, ReportsUnrecoverableWhenNoTierHoldsACopy) {
  ReplicaFixture f;
  f.net.host(0)->spawn("writer", [&] {
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, f.image(4), {1, 2});
    f.store.commit("app", 1);
  });
  f.eng.run();
  EXPECT_EQ(f.store.latest_recoverable("app", 1), 1u);
  f.net.crash_host(1);
  f.net.crash_host(2);
  EXPECT_FALSE(f.store.latest_recoverable("app", 1).has_value());
}

// Incremental chains: an epoch is only recoverable if every link back to
// the full anchor survives.
TEST(ReplicaStoreTest, RecoverableFollowsIncrementalChains) {
  ReplicaFixture f;
  f.net.host(0)->spawn("writer", [&] {
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 1}, f.image(8), {1});  // full anchor
    Image delta = f.image(1);
    delta.incremental = true;
    delta.base_epoch = 1;
    f.store.put(*f.net.host(0), CkptKey{"app", 0, 2}, std::move(delta), {2});
    f.store.commit("app", 2);
  });
  f.eng.run();
  EXPECT_TRUE(f.store.replicas()->recoverable(CkptKey{"app", 0, 2}));
  f.net.crash_host(1);  // the anchor dies; the delta alone is useless
  EXPECT_FALSE(f.store.replicas()->recoverable(CkptKey{"app", 0, 2}));
  EXPECT_FALSE(f.store.latest_recoverable("app", 1).has_value());
}

// ---------------------------------------- store instrumentation fixes ----

TEST(StoreInstrumentation, GcFoldsEpochTimingsIntoAggregate) {
  sim::Engine eng;
  net::Network net{eng};
  CheckpointStore store{eng};
  net.add_host("node0");
  eng.spawn("driver", [&] {
    store.note_begin("app", 1);
    eng.sleep(milliseconds(10));
    store.commit("app", 1);
    store.note_begin("app", 2);
    eng.sleep(milliseconds(30));
    store.commit("app", 2);
    store.gc("app", 2);
  });
  eng.run();
  // Epoch 1's per-epoch timestamps are folded away (unbounded-growth fix)…
  EXPECT_FALSE(store.epoch_duration("app", 1).has_value());
  EXPECT_TRUE(store.epoch_duration("app", 2).has_value());
  // …but the aggregate keeps both completed epochs.
  const auto stats = store.epoch_stats("app");
  EXPECT_EQ(stats.epochs, 2u);
  EXPECT_NEAR(sim::to_seconds(stats.total), 0.040, 1e-9);
}

TEST(StoreInstrumentation, AbortedBeginDoesNotPolluteReinitiatedEpoch) {
  sim::Engine eng;
  net::Network net{eng};
  CheckpointStore store{eng};
  net.add_host("node0");
  eng.spawn("driver", [&] {
    store.note_begin("app", 3);  // wave starts…
    eng.sleep(milliseconds(50));
    store.note_abort("app");  // …and is aborted by a view change
    eng.sleep(milliseconds(50));
    store.note_begin("app", 3);  // re-initiated after recovery
    eng.sleep(milliseconds(5));
    store.commit("app", 3);
  });
  eng.run();
  const auto d = store.epoch_duration("app", 3);
  ASSERT_TRUE(d.has_value());
  // Without note_abort the min-combine would keep the stale begin and
  // report 105 ms instead of the true 5 ms.
  EXPECT_NEAR(sim::to_seconds(*d), 0.005, 1e-9);
}

TEST(StoreInstrumentation, AbortKeepsCommittedEpochTimings) {
  sim::Engine eng;
  net::Network net{eng};
  CheckpointStore store{eng};
  net.add_host("node0");
  eng.spawn("driver", [&] {
    store.note_begin("app", 1);
    eng.sleep(milliseconds(7));
    store.commit("app", 1);
    store.note_abort("app");  // must not touch the completed epoch
  });
  eng.run();
  ASSERT_TRUE(store.epoch_duration("app", 1).has_value());
  EXPECT_NEAR(sim::to_seconds(*store.epoch_duration("app", 1)), 0.007, 1e-9);
}

}  // namespace
}  // namespace starfish::ckpt

// ------------------------------------------------------ cluster level ----

namespace starfish::core {
namespace {

using sim::milliseconds;
using sim::seconds;

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

int64_t expected_token(uint32_t n, int rounds) {
  int64_t per = 0;
  for (uint32_t r = 1; r < n; ++r) per += r;
  return per * rounds;
}

bool output_contains(const std::vector<std::string>& lines, const std::string& needle) {
  return std::any_of(lines.begin(), lines.end(), [&](const std::string& l) {
    return l.find(needle) != std::string::npos;
  });
}

daemon::JobSpec ring_job(const std::string& name, uint32_t nprocs) {
  daemon::JobSpec j;
  j.name = name;
  j.binary = "ring";
  j.nprocs = nprocs;
  j.policy = daemon::FtPolicy::kRestart;
  j.protocol = daemon::CrProtocol::kStopAndSync;
  j.level = daemon::CkptLevel::kVm;
  j.ckpt_interval = milliseconds(50);
  return j;
}

// Faults-off equivalence: the backend changes where checkpoint bytes live
// and what their I/O costs, never what the application computes.
TEST(ReplicaCluster, FaultFreeOutputMatchesDiskBackend) {
  std::vector<std::string> outputs[2];
  for (int i = 0; i < 2; ++i) {
    ClusterOptions opts;
    opts.nodes = 4;
    opts.ckpt_backend = i == 0 ? ckpt::CkptBackend::kDisk : ckpt::CkptBackend::kReplica;
    Cluster cluster(std::move(opts));
    cluster.registry().register_vm("ring", ring_program(20, 50000));
    cluster.submit(ring_job("eq", 4));
    ASSERT_TRUE(cluster.run_until_done("eq"));
    outputs[i] = cluster.output("eq");
    if (i == 1) {
      EXPECT_EQ(cluster.store().bytes_written(), 0u) << "replica backend wrote to disk";
      EXPECT_GT(cluster.store().replicas()->bytes_shipped(), 0u);
      EXPECT_TRUE(cluster.store().replicas()->validate());
    }
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

// The headline diskless claim: a node crash recovers from in-memory copies
// on the survivors — zero disk reads — and still produces the golden
// answer.
TEST(ReplicaCluster, RingSurvivesNodeCrashRecoveringFromMemory) {
  ClusterOptions opts;
  opts.nodes = 4;
  opts.ckpt_backend = ckpt::CkptBackend::kReplica;
  Cluster cluster(std::move(opts));
  cluster.registry().register_vm("ring", ring_program(40, 100000));
  cluster.submit(ring_job("diskless", 4));
  cluster.run_for(milliseconds(300));
  ASSERT_TRUE(cluster.store().latest_committed("diskless").has_value())
      << "no epoch committed before the crash — nothing to recover from";
  cluster.crash_node(2);
  ASSERT_TRUE(cluster.run_until_done("diskless", seconds(240.0)));
  EXPECT_TRUE(
      output_contains(cluster.output("diskless"), std::to_string(expected_token(4, 40))));
  EXPECT_EQ(cluster.store().bytes_written(), 0u) << "recovery touched the disk tier";
  EXPECT_GT(cluster.daemon_at(0).restarts_performed(), 0u);
  std::string why;
  EXPECT_TRUE(cluster.store().replicas()->validate(&why)) << why;
}

// Degraded replication (satellite): kill exactly R hosts holding every copy
// of one rank's pages. With no disk images to fall back to, the line is
// unrecoverable — the daemons must restart from scratch and still finish,
// never deadlock.
TEST(ReplicaCluster, LosingAllCopiesFallsBackToScratchRestart) {
  ClusterOptions opts;
  opts.nodes = 5;
  opts.ckpt_backend = ckpt::CkptBackend::kReplica;
  opts.ckpt_replication = 2;
  Cluster cluster(std::move(opts));
  cluster.registry().register_vm("ring", ring_program(30, 100000));
  cluster.submit(ring_job("degraded", 5));
  cluster.run_for(milliseconds(300));
  ASSERT_TRUE(cluster.store().latest_committed("degraded").has_value());

  // Round-robin placement puts rank r on node r; the placement function
  // puts rank 0's R=2 copies on the next hosts in the ring: hosts 1 and 2.
  ASSERT_EQ(ckpt::replica_holders({0, 1, 2, 3, 4}, 0, 2),
            (std::vector<sim::HostId>{1, 2}));
  cluster.crash_node(1);
  cluster.crash_node(2);
  // Every copy of rank 0's images is gone and nothing was ever on disk.
  EXPECT_FALSE(cluster.store().latest_recoverable("degraded", 5).has_value());

  ASSERT_TRUE(cluster.run_until_done("degraded", sim::seconds(240.0)))
      << "recovery deadlocked instead of restarting from scratch";
  EXPECT_TRUE(
      output_contains(cluster.output("degraded"), std::to_string(expected_token(5, 30))));
  std::string why;
  EXPECT_TRUE(cluster.store().replicas()->validate(&why)) << why;
}

// Up to R-1 concurrent holder crashes leave >= 1 copy of everything: the
// line holds and recovery restores the committed epoch, not scratch.
TEST(ReplicaCluster, SurvivesRMinus1HolderCrashesWithLineIntact) {
  ClusterOptions opts;
  opts.nodes = 5;
  opts.ckpt_backend = ckpt::CkptBackend::kReplica;
  opts.ckpt_replication = 2;
  Cluster cluster(std::move(opts));
  cluster.registry().register_vm("ring", ring_program(30, 100000));
  cluster.submit(ring_job("partial", 5));
  cluster.run_for(milliseconds(300));
  const auto committed = cluster.store().latest_committed("partial");
  ASSERT_TRUE(committed.has_value());
  cluster.crash_node(1);  // R-1 = 1 concurrent holder crash
  EXPECT_EQ(cluster.store().latest_recoverable("partial", 5), committed)
      << "one crash (< R) must not move the recovery line";
  ASSERT_TRUE(cluster.run_until_done("partial", sim::seconds(240.0)));
  EXPECT_TRUE(
      output_contains(cluster.output("partial"), std::to_string(expected_token(5, 30))));
}

// Chaos tier: lossy control plane + node crash, replica backend. The
// commit-after-transfer invariant must hold at the end — no entry held by
// a dead host, no entry with zero holders.
TEST(ReplicaChaos, SurvivesFaultsAndCrashWithInvariantsIntact) {
  ClusterOptions opts;
  opts.nodes = 4;
  opts.seed = 11;
  opts.ckpt_backend = ckpt::CkptBackend::kReplica;
  Cluster cluster(std::move(opts));
  cluster.registry().register_vm("ring", ring_program(40, 100000));
  cluster.boot();
  cluster.faults().set_transport(
      net::TransportKind::kTcpIp,
      {.drop = 0.02, .duplicate = 0.02, .jitter = sim::microseconds(100)});
  cluster.submit(ring_job("chaos", 4));
  cluster.run_for(milliseconds(150));
  cluster.crash_node(2);
  ASSERT_TRUE(cluster.run_until_done("chaos", seconds(240.0)));
  EXPECT_TRUE(
      output_contains(cluster.output("chaos"), std::to_string(expected_token(4, 40))));
  const auto* replicas = cluster.store().replicas();
  ASSERT_NE(replicas, nullptr);
  std::string why;
  EXPECT_TRUE(replicas->validate(&why)) << why;
  EXPECT_LE(replicas->puts_committed(), replicas->puts_started());
  EXPECT_GT(replicas->puts_committed(), 0u);
}

// ---------------------------------------------------- same-seed replay ----

struct ReplicaRun {
  std::vector<std::string> output;
  uint64_t replica_hash = 0;
  uint64_t store_hash = 0;
  uint64_t shipped = 0;
  sim::Time end = 0;
};

ReplicaRun replica_run() {
  ClusterOptions opts;
  opts.nodes = 4;
  opts.ckpt_backend = ckpt::CkptBackend::kReplica;
  Cluster cluster(std::move(opts));
  cluster.registry().register_vm("ring", ring_program(30, 100000));
  cluster.submit(ring_job("replay", 4));
  cluster.run_for(milliseconds(300));
  cluster.crash_node(2);
  EXPECT_TRUE(cluster.run_until_done("replay", seconds(240.0)));
  ReplicaRun out;
  out.output = cluster.output("replay");
  out.replica_hash = cluster.store().replicas()->content_hash();
  out.store_hash = cluster.store().content_hash();
  out.shipped = cluster.store().replicas()->bytes_shipped();
  out.end = cluster.engine().now();
  return out;
}

// The replica tier's holder sets, warm-transfer caches and shipped bytes
// after a crash and in-memory recovery are a pure function of the seed.
TEST(ReplicaReplay, ContentHashIdenticalOnSameSeedReplay) {
  const ReplicaRun base = replica_run();
  ASSERT_FALSE(base.output.empty());
  const ReplicaRun run = replica_run();
  EXPECT_EQ(run.replica_hash, base.replica_hash);
  EXPECT_EQ(run.store_hash, base.store_hash);
  EXPECT_EQ(run.shipped, base.shipped);
  EXPECT_EQ(run.output, base.output);
  EXPECT_EQ(run.end, base.end);
}

}  // namespace
}  // namespace starfish::core
