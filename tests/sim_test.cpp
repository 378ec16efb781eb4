#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/disk.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/machine.hpp"
#include "sim/sync.hpp"

namespace starfish::sim {
namespace {

// --------------------------------------------------------------- Engine ----

TEST(Engine, EventsRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(milliseconds(3), [&] { order.push_back(3); });
  eng.schedule(milliseconds(1), [&] { order.push_back(1); });
  eng.schedule(milliseconds(2), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), milliseconds(3));
}

TEST(Engine, SameTimeEventsRunInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule(microseconds(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, FiberSleepAdvancesVirtualTime) {
  Engine eng;
  Time woke = -1;
  eng.spawn("sleeper", [&] {
    eng.sleep(seconds(2.5));
    woke = eng.now();
  });
  eng.run();
  EXPECT_EQ(woke, seconds(2.5));
}

TEST(Engine, NestedSpawnAndYield) {
  Engine eng;
  std::vector<std::string> log;
  eng.spawn("a", [&] {
    log.push_back("a1");
    eng.spawn("b", [&] {
      log.push_back("b1");
      eng.yield();
      log.push_back("b2");
    });
    eng.yield();
    log.push_back("a2");
  });
  eng.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "a1");
  // b starts after a yields (scheduled later at the same timestamp).
  EXPECT_EQ(log[1], "b1");
}

TEST(Engine, RunForStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  eng.schedule(seconds(1.0), [&] { ++fired; });
  eng.schedule(seconds(3.0), [&] { ++fired; });
  eng.run_for(seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), seconds(2.0));
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      eng.spawn("f", [&eng, &order, i] {
        eng.sleep(microseconds((i * 37) % 11));
        order.push_back(i);
      });
    }
    eng.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, KillBlockedFiberUnwindsRaii) {
  Engine eng;
  bool cleaned_up = false;
  bool reached_end = false;
  auto f = eng.spawn("victim", [&] {
    struct Cleanup {
      bool& flag;
      ~Cleanup() { flag = true; }
    } guard{cleaned_up};
    eng.sleep(seconds(100));
    reached_end = true;
  });
  eng.schedule(seconds(1), [&] { eng.kill(f); });
  eng.run();
  EXPECT_TRUE(cleaned_up);
  EXPECT_FALSE(reached_end);
  EXPECT_TRUE(f->finished());
}

TEST(Engine, KillRunningFiberThrowsAtNextBlock) {
  Engine eng;
  int steps = 0;
  FiberPtr f;
  f = eng.spawn("loop", [&] {
    for (;;) {
      ++steps;
      eng.sleep(milliseconds(10));
    }
  });
  eng.schedule(milliseconds(35), [&] { eng.kill(f); });
  eng.run();
  EXPECT_TRUE(f->finished());
  EXPECT_EQ(steps, 4);  // t=0,10,20,30
}

TEST(Engine, KillBeforeStartNeverRuns) {
  // Its start event retires it instead: the body's captures and the stack
  // go then.
  Engine eng;
  bool ran = false;
  auto token = std::make_shared<int>(1);
  const std::weak_ptr<int> watch = token;
  auto f = eng.spawn("late", [&ran, token] { ran = true; }, seconds(5));
  token.reset();
  eng.schedule(seconds(1), [&] { eng.kill(f); });
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(f->finished());
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(eng.live_fibers(), 0u);
  EXPECT_EQ(eng.stack_pool().outstanding(), 0u);
}

TEST(Engine, BlockUntilTimesOut) {
  Engine eng;
  WakeReason reason = WakeReason::kSignal;
  eng.spawn("waiter", [&] { reason = eng.block_until(eng.now() + seconds(1)); });
  eng.run();
  EXPECT_EQ(reason, WakeReason::kTimer);
  EXPECT_EQ(eng.now(), seconds(1.0));
}

TEST(Engine, ManyFibersStress) {
  Engine eng;
  int done = 0;
  for (int i = 0; i < 500; ++i) {
    eng.spawn("w", [&eng, &done, i] {
      for (int k = 0; k < 10; ++k) eng.sleep(microseconds(i % 7 + 1));
      ++done;
    });
  }
  eng.run();
  EXPECT_EQ(done, 500);
}

// -------------------------------------------------------------- Channel ----

TEST(Channel, SendThenRecv) {
  Engine eng;
  Channel<int> ch(eng);
  int got = 0;
  eng.spawn("reader", [&] { got = ch.recv().value.value(); });
  eng.spawn("writer", [&] {
    eng.sleep(milliseconds(5));
    ch.send(42);
  });
  eng.run();
  EXPECT_EQ(got, 42);
}

TEST(Channel, FifoOrderManyItems) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> got;
  eng.spawn("reader", [&] {
    for (int i = 0; i < 100; ++i) got.push_back(ch.recv().value.value());
  });
  eng.spawn("writer", [&] {
    for (int i = 0; i < 100; ++i) {
      ch.send(i);
      if (i % 7 == 0) eng.yield();
    }
  });
  eng.run();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(Channel, RecvTimeout) {
  Engine eng;
  Channel<int> ch(eng);
  RecvStatus status = RecvStatus::kOk;
  eng.spawn("reader", [&] { status = ch.recv(eng.now() + milliseconds(50)).status; });
  eng.run();
  EXPECT_EQ(status, RecvStatus::kTimeout);
}

TEST(Channel, CloseDeliversQueuedThenClosed) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<RecvStatus> statuses;
  ch.send(1);
  ch.send(2);
  ch.close();
  EXPECT_FALSE(ch.send(3));  // dropped
  eng.spawn("reader", [&] {
    for (int i = 0; i < 3; ++i) statuses.push_back(ch.recv().status);
  });
  eng.run();
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses[0], RecvStatus::kOk);
  EXPECT_EQ(statuses[1], RecvStatus::kOk);
  EXPECT_EQ(statuses[2], RecvStatus::kClosed);
}

TEST(Channel, CloseWakesBlockedReader) {
  Engine eng;
  Channel<int> ch(eng);
  RecvStatus status = RecvStatus::kOk;
  eng.spawn("reader", [&] { status = ch.recv().status; });
  eng.spawn("closer", [&] {
    eng.sleep(milliseconds(1));
    ch.close();
  });
  eng.run();
  EXPECT_EQ(status, RecvStatus::kClosed);
}

TEST(Channel, MultipleReadersEachGetOneItem) {
  Engine eng;
  Channel<int> ch(eng);
  int sum = 0, count = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn("reader", [&] {
      auto r = ch.recv();
      if (r.ok()) {
        sum += *r.value;
        ++count;
      }
    });
  }
  eng.spawn("writer", [&] {
    eng.sleep(milliseconds(1));
    ch.send(10);
    ch.send(20);
    ch.send(30);
  });
  eng.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sum, 60);
}

TEST(Channel, KilledReaderDoesNotCorruptWaitList) {
  Engine eng;
  Channel<int> ch(eng);
  int got = -1;
  auto victim = eng.spawn("victim", [&] { (void)ch.recv(); });
  eng.spawn("survivor", [&] {
    auto r = ch.recv();
    got = r.value.value_or(-2);
  });
  eng.schedule(milliseconds(1), [&] { eng.kill(victim); });
  eng.schedule(milliseconds(2), [&] { ch.send(7); });
  eng.run();
  EXPECT_EQ(got, 7);
}

TEST(Channel, CloseWakesManyWaiters) {
  Engine eng;
  Channel<int> ch(eng);
  int closed_count = 0;
  for (int i = 0; i < 20; ++i) {
    eng.spawn("w", [&] {
      if (ch.recv().status == RecvStatus::kClosed) ++closed_count;
    });
  }
  eng.schedule(milliseconds(1), [&] { ch.close(); });
  eng.run();
  EXPECT_EQ(closed_count, 20);
}

TEST(Engine, KillStormLeavesEngineConsistent) {
  // Kill dozens of fibers blocked on assorted primitives at once; the
  // engine must drain cleanly and survivors must keep working.
  Engine eng;
  Channel<int> ch(eng);
  Mutex mu(eng);
  CondVar cv(eng);
  std::vector<FiberPtr> victims;
  for (int i = 0; i < 10; ++i) {
    victims.push_back(eng.spawn("v-recv", [&] { (void)ch.recv(); }));
    victims.push_back(eng.spawn("v-sleep", [&] { eng.sleep(seconds(100)); }));
    victims.push_back(eng.spawn("v-cv", [&] { cv.wait([] { return false; }); }));
  }
  int survivor_done = 0;
  eng.spawn("survivor", [&] {
    for (int i = 0; i < 10; ++i) {
      eng.sleep(milliseconds(2));
      LockGuard guard(mu);
      ++survivor_done;
    }
  });
  eng.schedule(milliseconds(5), [&] {
    for (auto& v : victims) eng.kill(v);
  });
  eng.run();
  EXPECT_EQ(survivor_done, 10);
  for (auto& v : victims) EXPECT_TRUE(v->finished());
  // The channel still works after the storm.
  int got = 0;
  eng.spawn("late", [&] { got = ch.recv().value.value_or(-1); });
  eng.schedule(0, [&] { ch.send(5); });
  eng.run();
  EXPECT_EQ(got, 5);
}

TEST(Engine, KillSelfFromInsideFiber) {
  Engine eng;
  bool after_kill = false;
  FiberPtr self_holder;
  self_holder = eng.spawn("suicidal", [&] {
    eng.kill(self_holder);   // marks; throw happens at the next block
    eng.sleep(milliseconds(1));
    after_kill = true;
  });
  eng.run();
  EXPECT_FALSE(after_kill);
  EXPECT_TRUE(self_holder->finished());
}

// ------------------------------------------------------ fiber ownership ----

TEST(Engine, FinishedFiberDropsItsCaptures) {
  // The caller keeps the FiberPtr; the body's captures must still die at
  // the finish, not with the last FiberPtr.
  Engine eng;
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = token;
  const FiberPtr f = eng.spawn("holder", [&eng, token] { eng.sleep(milliseconds(1)); });
  token.reset();
  EXPECT_EQ(eng.live_fibers(), 1u);
  EXPECT_FALSE(watch.expired());  // the body holds it while the fiber runs
  eng.run();
  EXPECT_TRUE(f->finished());
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(eng.live_fibers(), 0u);
}

TEST(Engine, BodyThatReachesItsOwnFiberIsFreedAtFinish) {
  // body -> holder -> fiber -> body, as when a helper fiber's captured
  // request state points back at the helper.
  Engine eng;
  std::weak_ptr<Fiber> watch;
  {
    auto holder = std::make_shared<FiberPtr>();
    *holder = eng.spawn("cyclic", [&eng, holder] { eng.sleep(milliseconds(1)); });
    watch = *holder;
  }
  EXPECT_FALSE(watch.expired());
  eng.run();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(eng.live_fibers(), 0u);
}

TEST(Engine, ShutdownRetiresEveryLiveFiber) {
  Engine eng;
  std::vector<FiberPtr> fibers;
  fibers.push_back(eng.spawn("blocked", [&eng] { (void)eng.block(); }));
  fibers.push_back(eng.spawn("unstarted", [] {}, seconds(10)));
  fibers.push_back(eng.spawn("done", [] {}));
  eng.run_for(milliseconds(1));
  EXPECT_EQ(eng.live_fibers(), 2u);
  eng.shutdown();
  EXPECT_EQ(eng.live_fibers(), 0u);
  for (const FiberPtr& f : fibers) EXPECT_TRUE(f->finished());
  EXPECT_EQ(eng.stack_pool().outstanding(), 0u);
}

// ---------------------------------------------------------- Mutex / CV ----

TEST(Mutex, MutualExclusionAcrossBlockingPoints) {
  Engine eng;
  Mutex mu(eng);
  std::vector<int> trace;
  for (int i = 0; i < 3; ++i) {
    eng.spawn("worker", [&, i] {
      LockGuard guard(mu);
      trace.push_back(i * 10);      // enter
      eng.sleep(milliseconds(10));  // hold across a blocking point
      trace.push_back(i * 10 + 1);  // exit
    });
  }
  eng.run();
  ASSERT_EQ(trace.size(), 6u);
  // Sections never interleave: each enter is immediately followed by its exit.
  for (size_t i = 0; i < 6; i += 2) EXPECT_EQ(trace[i] + 1, trace[i + 1]);
}

TEST(Mutex, UnlockedOnKillUnwind) {
  Engine eng;
  Mutex mu(eng);
  auto holder = eng.spawn("holder", [&] {
    LockGuard guard(mu);
    eng.sleep(seconds(100));
  });
  bool acquired = false;
  eng.spawn("waiter", [&] {
    eng.sleep(milliseconds(1));
    LockGuard guard(mu);
    acquired = true;
  });
  eng.schedule(milliseconds(5), [&] { eng.kill(holder); });
  eng.run();
  EXPECT_TRUE(acquired);
  EXPECT_FALSE(mu.locked());
}

TEST(CondVar, WaitForPredicate) {
  Engine eng;
  CondVar cv(eng);
  int value = 0;
  bool observed = false;
  eng.spawn("waiter", [&] {
    cv.wait([&] { return value == 3; });
    observed = true;
  });
  eng.spawn("setter", [&] {
    for (int i = 1; i <= 3; ++i) {
      eng.sleep(milliseconds(1));
      value = i;
      cv.notify_all();
    }
  });
  eng.run();
  EXPECT_TRUE(observed);
}

TEST(CondVar, WaitUntilTimesOut) {
  Engine eng;
  CondVar cv(eng);
  bool ok = true;
  eng.spawn("waiter", [&] {
    ok = cv.wait_until(eng.now() + milliseconds(10), [] { return false; });
  });
  eng.run();
  EXPECT_FALSE(ok);
}

TEST(Barrier, AllArriveTogether) {
  Engine eng;
  Barrier bar(eng, 4);
  std::vector<Time> times;
  for (int i = 0; i < 4; ++i) {
    eng.spawn("p", [&, i] {
      eng.sleep(milliseconds(i * 10));
      bar.arrive_and_wait();
      times.push_back(eng.now());
    });
  }
  eng.run();
  ASSERT_EQ(times.size(), 4u);
  for (auto t : times) EXPECT_EQ(t, milliseconds(30));
}

TEST(Barrier, Reusable) {
  Engine eng;
  Barrier bar(eng, 2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    eng.spawn("p", [&, i] {
      for (int round = 0; round < 5; ++round) {
        eng.sleep(milliseconds(i + 1));
        bar.arrive_and_wait();
      }
      ++rounds_done;
    });
  }
  eng.run();
  EXPECT_EQ(rounds_done, 2);
}

// ----------------------------------------------------------- Host/Disk ----

TEST(Disk, TransferTimeLinearInSize) {
  Engine eng;
  Disk disk(eng, DiskParams{milliseconds(2), 20.0});
  const Duration t1 = disk.transfer_time(20 * 1000 * 1000);
  EXPECT_EQ(t1, milliseconds(2) + seconds(1.0));
  // Doubling size roughly doubles the transfer term.
  const Duration t2 = disk.transfer_time(40 * 1000 * 1000);
  EXPECT_EQ(t2 - milliseconds(2), 2 * (t1 - milliseconds(2)));
}

TEST(Disk, ConcurrentWritesSerialize) {
  Engine eng;
  Disk disk(eng, DiskParams{0, 10.0});  // 10 MB/s, no setup
  Time done_a = 0, done_b = 0;
  eng.spawn("a", [&] {
    disk.write(10 * 1000 * 1000);
    done_a = eng.now();
  });
  eng.spawn("b", [&] {
    disk.write(10 * 1000 * 1000);
    done_b = eng.now();
  });
  eng.run();
  // Each write takes 1 s; serialized they finish at 1 s and 2 s.
  EXPECT_EQ(std::min(done_a, done_b), seconds(1.0));
  EXPECT_EQ(std::max(done_a, done_b), seconds(2.0));
}

TEST(Host, CrashKillsItsFibers) {
  Engine eng;
  Host host(eng, 0, "node0", default_machine());
  int survivor_progress = 0, victim_progress = 0;
  host.spawn("victim", [&] {
    for (;;) {
      eng.sleep(milliseconds(10));
      ++victim_progress;
    }
  });
  eng.spawn("survivor", [&] {
    for (int i = 0; i < 10; ++i) {
      eng.sleep(milliseconds(10));
      ++survivor_progress;
    }
  });
  eng.schedule(milliseconds(35), [&] { host.crash(); });
  eng.run();
  EXPECT_FALSE(host.alive());
  EXPECT_EQ(victim_progress, 3);
  EXPECT_EQ(survivor_progress, 10);
  EXPECT_EQ(host.incarnation(), 1u);
}

TEST(Host, CrashUnwindsLiveFibersInSpawnOrder) {
  // Finished fibers sit between the live ones, and a fiber of another node
  // between those: the crash must unwind exactly the host's live fibers,
  // in the order they were spawned.
  Engine eng;
  Host host(eng, 0, "node0", default_machine());
  std::vector<std::string> unwound;
  struct Unwind {
    std::vector<std::string>& log;
    std::string name;
    ~Unwind() { log.push_back(name); }
  };
  auto victim = [&](const std::string& name) {
    return [&, name] {
      Unwind guard{unwound, name};
      eng.sleep(seconds(100));
    };
  };
  host.spawn("v0", victim("v0"));
  host.spawn("f1", [] {});
  bool other_done = false;
  eng.spawn("other", [&] {
    eng.sleep(milliseconds(10));
    other_done = true;
  });
  host.spawn("v2", victim("v2"));
  host.spawn("f3", [] {});
  host.spawn("v4", victim("v4"));
  eng.run_for(milliseconds(1));
  EXPECT_EQ(eng.live_fibers(), 4u);  // v0, other, v2, v4
  eng.schedule(0, [&] { host.crash(); });
  eng.run();
  EXPECT_EQ(unwound, (std::vector<std::string>{"v0", "v2", "v4"}));
  EXPECT_TRUE(other_done);
  EXPECT_EQ(eng.live_fibers(), 0u);
}

TEST(Host, RebootAllowsNewFibers) {
  Engine eng;
  Host host(eng, 0, "node0", default_machine());
  host.crash();
  host.reboot();
  EXPECT_TRUE(host.alive());
  bool ran = false;
  host.spawn("fresh", [&] { ran = true; });
  eng.run();
  EXPECT_TRUE(ran);
}

TEST(Machine, Table2HasSixEntriesMatchingPaper) {
  auto machines = table2_machines();
  ASSERT_EQ(machines.size(), 6u);
  // Spot-check endianness/word-length columns from Table 2.
  EXPECT_EQ(machines[0].endian, util::Endian::kLittle);  // i686 Linux
  EXPECT_EQ(machines[1].endian, util::Endian::kBig);     // Sun Ultra
  EXPECT_EQ(machines[2].endian, util::Endian::kBig);     // RS/6000
  EXPECT_EQ(machines[5].word_bytes, 8);                  // Alpha DS20 64-bit
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(machines[i].word_bytes, 4);
}

// ------------------------------------------------------------ StackPool ----

TEST(StackPool, ReusesSameSizeBucketAndCountsStats) {
  StackPool pool;
  const auto a = pool.acquire(64 * 1024);
  EXPECT_FALSE(a.reused);
  pool.release(a.base, a.total);
  const auto b = pool.acquire(64 * 1024);
  EXPECT_TRUE(b.reused);
  EXPECT_EQ(b.base, a.base);  // same mapping came back, guard page intact
  const auto c = pool.acquire(128 * 1024);
  EXPECT_FALSE(c.reused);  // different size, different bucket
  pool.release(b.base, b.total);
  pool.release(c.base, c.total);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.cached(), 2u);
  EXPECT_EQ(pool.retired(), 0u);
}

TEST(StackPool, RecyclesStacksAcrossTenThousandChurnedFibers) {
  // Spawn/kill churn: 200 waves of 50 fibers (10k total), mixing normal
  // exits with kills that unwind blocked fibers via FiberKilled. Wave size
  // stays under kMaxFreePerBucket, so after the first wave warms the pool
  // every stack is recycled — the steady state makes zero mmap syscalls.
  Engine eng;
  constexpr uint64_t kWaves = 200;
  constexpr uint64_t kPerWave = 50;
  eng.spawn("driver", [&] {
    for (uint64_t w = 0; w < kWaves; ++w) {
      std::vector<FiberPtr> wave;
      for (uint64_t i = 0; i < kPerWave; ++i) {
        if (i % 4 == 0) {
          wave.push_back(eng.spawn("victim", [&] { eng.sleep(seconds(10)); }));
        } else {
          wave.push_back(eng.spawn("worker", [&] { eng.sleep(microseconds(1)); }));
        }
      }
      eng.sleep(microseconds(2));  // workers finish; victims still blocked
      for (auto& f : wave) eng.kill(f);
      eng.sleep(microseconds(2));  // kill-wakes dispatch and unwind
    }
  });
  eng.run();

  const StackPool& pool = eng.stack_pool();
  EXPECT_EQ(pool.hits() + pool.misses(), kWaves * kPerWave + 1);  // +1 driver
  // Only the first wave (plus the driver) should miss.
  EXPECT_LE(pool.misses(), kPerWave + 1);
  EXPECT_GE(pool.hits(), (kWaves - 1) * kPerWave);
  // Retained memory stays bounded by the bucket cap.
  EXPECT_LE(pool.cached(), StackPool::kMaxFreePerBucket);
}

TEST(Machine, ReprCodeDistinguishesRepresentations) {
  auto machines = table2_machines();
  // i686 Linux and WinNT P-II share a representation; Sun differs.
  EXPECT_EQ(machines[0].repr_code(), machines[4].repr_code());
  EXPECT_NE(machines[0].repr_code(), machines[1].repr_code());
  EXPECT_NE(machines[0].repr_code(), machines[5].repr_code());
  EXPECT_TRUE(machines[0].same_representation(machines[3]));
}

}  // namespace
}  // namespace starfish::sim
