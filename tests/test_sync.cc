// Tests for coroutine synchronization primitives: mutual exclusion, FIFO
// fairness, reader batching, share classes, handoff correctness under racing
// acquires, and the OneShot completion slot used by the RPC layer, and the
// CpuPool run queue.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::sim {
namespace {

TEST(Mutex, ProvidesMutualExclusion) {
  Simulator sim;
  Mutex mu(&sim);
  int in_critical = 0;
  int max_in_critical = 0;
  auto worker = [&](SimTime hold) -> Task<void> {
    auto guard = co_await mu.Acquire();
    in_critical++;
    max_in_critical = std::max(max_in_critical, in_critical);
    co_await Delay(&sim, hold);
    in_critical--;
  };
  for (int i = 0; i < 10; ++i) {
    Spawn(worker(7));
  }
  sim.Run();
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_EQ(sim.Now(), 70);
  EXPECT_FALSE(mu.locked());
}

TEST(Mutex, FifoOrder) {
  Simulator sim;
  Mutex mu(&sim);
  std::vector<int> order;
  auto worker = [&](int id) -> Task<void> {
    auto guard = co_await mu.Acquire();
    order.push_back(id);
    co_await Delay(&sim, 1);
  };
  // Stagger arrival so the queue order is 0,1,2,3,4.
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(i, [&, i] { Spawn(worker(i)); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mutex, GuardMoveTransfersOwnership) {
  Simulator sim;
  Mutex mu(&sim);
  Spawn([](Simulator* s, Mutex* m) -> Task<void> {
    auto g1 = co_await m->Acquire();
    Mutex::Guard g2 = std::move(g1);
    EXPECT_FALSE(g1.held());
    EXPECT_TRUE(g2.held());
    EXPECT_TRUE(m->locked());
    co_await Delay(s, 1);
  }(&sim, &mu));
  sim.Run();
  EXPECT_FALSE(mu.locked());
}

TEST(SharedMutex, ReadersShareWritersExclude) {
  Simulator sim;
  SharedMutex mu(&sim);
  int readers_in = 0;
  int max_readers = 0;
  bool writer_in = false;
  auto reader = [&]() -> Task<void> {
    auto g = co_await mu.AcquireShared();
    EXPECT_FALSE(writer_in);
    readers_in++;
    max_readers = std::max(max_readers, readers_in);
    co_await Delay(&sim, 10);
    readers_in--;
  };
  auto writer = [&]() -> Task<void> {
    auto g = co_await mu.AcquireExclusive();
    EXPECT_EQ(readers_in, 0);
    EXPECT_FALSE(writer_in);
    writer_in = true;
    co_await Delay(&sim, 10);
    writer_in = false;
  };
  Spawn(reader());
  Spawn(reader());
  sim.ScheduleAt(2, [&] { Spawn(writer()); });
  sim.ScheduleAt(4, [&] { Spawn(reader()); });
  sim.Run();
  EXPECT_GE(max_readers, 2);
  EXPECT_EQ(mu.readers(), 0);
  EXPECT_FALSE(mu.has_writer());
}

TEST(SharedMutex, FifoPreventsReaderBypassOfQueuedWriter) {
  Simulator sim;
  SharedMutex mu(&sim);
  std::string order;
  auto reader = [&](char tag) -> Task<void> {
    auto g = co_await mu.AcquireShared();
    order.push_back(tag);
    co_await Delay(&sim, 10);
  };
  auto writer = [&](char tag) -> Task<void> {
    auto g = co_await mu.AcquireExclusive();
    order.push_back(tag);
    co_await Delay(&sim, 10);
  };
  sim.ScheduleAt(0, [&] { Spawn(reader('a')); });
  sim.ScheduleAt(1, [&] { Spawn(writer('W')); });
  // 'b' arrives while W is queued: FIFO means b runs after W even though the
  // lock is only reader-held at its arrival.
  sim.ScheduleAt(2, [&] { Spawn(reader('b')); });
  sim.Run();
  EXPECT_EQ(order, "aWb");
}

TEST(SharedMutex, BatchesConsecutiveQueuedReaders) {
  Simulator sim;
  SharedMutex mu(&sim);
  int concurrent = 0;
  int max_concurrent = 0;
  auto reader = [&]() -> Task<void> {
    auto g = co_await mu.AcquireShared();
    concurrent++;
    max_concurrent = std::max(max_concurrent, concurrent);
    co_await Delay(&sim, 10);
    concurrent--;
  };
  auto writer = [&]() -> Task<void> {
    auto g = co_await mu.AcquireExclusive();
    co_await Delay(&sim, 10);
  };
  sim.ScheduleAt(0, [&] { Spawn(writer()); });
  sim.ScheduleAt(1, [&] { Spawn(reader()); });
  sim.ScheduleAt(2, [&] { Spawn(reader()); });
  sim.ScheduleAt(3, [&] { Spawn(reader()); });
  sim.Run();
  EXPECT_EQ(max_concurrent, 3);  // all three admitted together after writer
}

// Share classes (the change-log lock's appenders and collect sessions): one
// holder log, "+<tag>" on grant and "-<tag>" on release, drives each test.
class ClassedLockLog {
 public:
  explicit ClassedLockLog(Simulator* sim) : sim_(sim), mu_(sim) {}

  // Spawns, at `at`, a holder of `mode` ('x' exclusive, or a share class
  // digit) that keeps the lock for `hold` ns.
  void Hold(SimTime at, char tag, char mode, SimTime hold) {
    sim_->ScheduleAt(at, [this, tag, mode, hold] {
      Spawn(Holder(this, tag, mode, hold));
    });
  }
  const std::string& log() const { return log_; }
  SharedMutex& mu() { return mu_; }

 private:
  static Task<void> Holder(ClassedLockLog* self, char tag, char mode,
                           SimTime hold) {
    SharedMutex::Guard g;
    if (mode == 'x') {
      g = co_await self->mu_.AcquireExclusive();
    } else {
      g = co_await self->mu_.AcquireShared(static_cast<ShareClass>(mode - '0'));
    }
    self->log_ += std::string("+") + tag;
    co_await Delay(self->sim_, hold);
    self->log_ += std::string("-") + tag;
  }

  Simulator* sim_;
  SharedMutex mu_;
  std::string log_;
};

TEST(SharedMutexClasses, SameClassHoldersShare) {
  Simulator sim;
  ClassedLockLog l(&sim);
  l.Hold(0, 'a', '1', 10);
  l.Hold(1, 'b', '1', 10);
  l.Hold(2, 'c', '1', 10);
  sim.RunUntil(5);
  EXPECT_EQ(l.mu().readers(), 3);
  EXPECT_EQ(l.mu().reader_class(), 1);
  sim.Run();
  EXPECT_EQ(l.log(), "+a+b+c-a-b-c");
  EXPECT_EQ(l.mu().readers(), 0);
}

TEST(SharedMutexClasses, OtherClassWaitsInFifoOrder) {
  Simulator sim;
  ClassedLockLog l(&sim);
  l.Hold(0, 'a', '1', 10);  // class 1 holds until 10
  l.Hold(1, 'P', '2', 10);  // class 2 queues behind it
  l.Hold(2, 'b', '1', 10);  // class 1 again, but queued behind P
  l.Hold(3, 'Q', '2', 10);  // class 2 again, queued behind b
  sim.Run();
  // FIFO: b does not join a's class past the queued P, and Q does not join
  // P's class past the queued b.
  EXPECT_EQ(l.log(), "+a-a+P-P+b-b+Q-Q");
}

TEST(SharedMutexClasses, ConsecutiveQueuedSameClassWaitersAdmitTogether) {
  Simulator sim;
  ClassedLockLog l(&sim);
  l.Hold(0, 'a', '1', 10);
  l.Hold(1, 'P', '2', 10);
  l.Hold(2, 'Q', '2', 10);
  l.Hold(3, 'b', '1', 10);
  sim.Run();
  EXPECT_EQ(l.log(), "+a-a+P+Q-P-Q+b-b");
}

TEST(SharedMutexClasses, ExclusiveExcludesBothClasses) {
  Simulator sim;
  ClassedLockLog l(&sim);
  l.Hold(0, 'a', '1', 10);
  l.Hold(1, 'X', 'x', 10);
  l.Hold(2, 'P', '2', 10);
  l.Hold(3, 'Y', 'x', 10);
  l.Hold(4, 'b', '1', 10);
  sim.Run();
  EXPECT_EQ(l.log(), "+a-a+X-X+P-P+Y-Y+b-b");
  EXPECT_FALSE(l.mu().has_writer());
}

// A collect session queued behind appenders is granted as soon as the
// appenders ahead of it leave, however many more keep arriving: each late
// appender queues behind the session instead of joining the held class.
TEST(SharedMutexClasses, WaitingSessionIsNotStarvedByArrivingAppenders) {
  Simulator sim;
  ClassedLockLog l(&sim);
  l.Hold(0, 'a', '1', 10);  // appender holding until 10
  l.Hold(1, 'S', '2', 5);   // session waits
  for (int i = 0; i < 8; ++i) {
    // A stream of appenders, each arriving while some appender still holds.
    l.Hold(2 + i, static_cast<char>('b' + i), '1', 10);
  }
  sim.Run();
  EXPECT_EQ(l.log().substr(0, 6), "+a-a+S");
  EXPECT_EQ(l.log().find("+b"), l.log().find("-S") + 2);
}

TEST(Semaphore, LimitsConcurrencyAndHandsOffFairly) {
  Simulator sim;
  Semaphore sem(&sim, 2);
  int in = 0;
  int max_in = 0;
  std::vector<int> order;
  auto worker = [&](int id) -> Task<void> {
    co_await sem.Acquire();
    order.push_back(id);
    in++;
    max_in = std::max(max_in, in);
    co_await Delay(&sim, 10);
    in--;
    sem.Release();
  };
  for (int i = 0; i < 6; ++i) {
    sim.ScheduleAt(i, [&, i] { Spawn(worker(i)); });
  }
  sim.Run();
  EXPECT_EQ(max_in, 2);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sem.permits(), 2);
}

TEST(Semaphore, NoPermitTheftDuringHandoff) {
  Simulator sim;
  Semaphore sem(&sim, 1);
  std::vector<int> order;
  auto worker = [&](int id, SimTime hold) -> Task<void> {
    co_await sem.Acquire();
    order.push_back(id);
    co_await Delay(&sim, hold);
    sem.Release();
  };
  Spawn(worker(0, 10));
  sim.ScheduleAt(1, [&] { Spawn(worker(1, 10)); });
  // Arrives exactly when worker 0 releases; must not jump ahead of worker 1.
  sim.ScheduleAt(10, [&] { Spawn(worker(2, 10)); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ManualEvent, ReleasesAllWaiters) {
  Simulator sim;
  ManualEvent ev(&sim);
  int released = 0;
  auto waiter = [&]() -> Task<void> {
    co_await ev.Wait();
    released++;
  };
  for (int i = 0; i < 5; ++i) {
    Spawn(waiter());
  }
  sim.ScheduleAt(50, [&] { ev.Set(); });
  sim.Run();
  EXPECT_EQ(released, 5);
  // Waiting on an already-set event completes immediately.
  Spawn(waiter());
  sim.Run();
  EXPECT_EQ(released, 6);
}

TEST(OneShot, FirstSetWins) {
  Simulator sim;
  OneShot<int> slot(&sim);
  EXPECT_TRUE(slot.Set(1));
  EXPECT_FALSE(slot.Set(2));
  int got = 0;
  Spawn([](OneShot<int>* s, int* out) -> Task<void> {
    *out = co_await s->Wait();
  }(&slot, &got));
  sim.Run();
  EXPECT_EQ(got, 1);
}

TEST(OneShot, WaiterResumesOnSet) {
  Simulator sim;
  OneShot<int> slot(&sim);
  int got = 0;
  SimTime resumed_at = 0;
  Spawn([](Simulator* sp, OneShot<int>* s, int* out, SimTime* at) -> Task<void> {
    *out = co_await s->Wait();
    *at = sp->Now();
  }(&sim, &slot, &got, &resumed_at));
  sim.ScheduleAt(25, [&] { slot.Set(7); });
  sim.Run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(resumed_at, 25);
}

TEST(JoinCounter, WaitsForAllCompletions) {
  Simulator sim;
  JoinCounter join(&sim, 3);
  bool done = false;
  Spawn([](JoinCounter* j, bool* d) -> Task<void> {
    co_await j->Wait();
    *d = true;
  }(&join, &done));
  sim.ScheduleAt(1, [&] { join.Done(); });
  sim.ScheduleAt(2, [&] { join.Done(); });
  sim.RunUntil(5);
  EXPECT_FALSE(done);
  sim.ScheduleAt(6, [&] { join.Done(); });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(CpuPool, EnforcesCoreCountAndTracksBusyTime) {
  Simulator sim;
  CpuPool cpu(&sim, 2);
  int done = 0;
  auto job = [&]() -> Task<void> {
    co_await cpu.Run(100);
    done++;
  };
  for (int i = 0; i < 4; ++i) {
    Spawn(job());
  }
  sim.Run();
  EXPECT_EQ(done, 4);
  // 4 jobs x 100ns on 2 cores = 200ns wall, 400ns busy.
  EXPECT_EQ(sim.Now(), 200);
  EXPECT_EQ(cpu.busy_time(), 400);
  EXPECT_DOUBLE_EQ(cpu.Utilization(200), 1.0);
}

TEST(CpuPool, SingleCoreSerializes) {
  Simulator sim;
  CpuPool cpu(&sim, 1);
  std::vector<SimTime> finish_times;
  auto job = [&]() -> Task<void> {
    co_await cpu.Run(10);
    finish_times.push_back(sim.Now());
  };
  for (int i = 0; i < 3; ++i) {
    Spawn(job());
  }
  sim.Run();
  EXPECT_EQ(finish_times, (std::vector<SimTime>{10, 20, 30}));
}

// A release hands the core straight to the run-queue front: the caller that
// just released and immediately asks again (a newcomer arriving between the
// handoff and the waiter's grant event) queues behind it.
TEST(CpuPool, HandsOffFifoAndNewcomersNeverBypassTheQueue) {
  Simulator sim;
  CpuPool cpu(&sim, 1);
  std::vector<std::pair<char, SimTime>> done;
  auto job = [&](char tag, SimTime first, SimTime second) -> Task<void> {
    co_await cpu.Run(first);
    done.emplace_back(tag, sim.Now());
    if (second > 0) {
      co_await cpu.Run(second);  // arrives with a grant already pending
      done.emplace_back(static_cast<char>(tag + 1), sim.Now());
    }
  };
  Spawn(job('a', 10, 5));
  Spawn(job('c', 10, 0));
  // A newcomer while the queue is non-empty joins its tail.
  sim.ScheduleAt(5, [&] { Spawn(job('d', 1, 0)); });
  sim.Run();
  const std::vector<std::pair<char, SimTime>> want = {
      {'a', 10}, {'c', 20}, {'d', 21}, {'b', 26}};
  EXPECT_EQ(done, want);
  EXPECT_EQ(cpu.busy_time(), 26);
}

// busy_time is charged when a run starts on a core (immediately, or at its
// grant event when it queued); run_queue_length counts runs still waiting for
// a core, so a handed-off run leaves the queue at its release.
TEST(CpuPool, BusyTimeAndRunQueueLengthTrackGrants) {
  Simulator sim;
  CpuPool cpu(&sim, 2);
  auto job = [&](SimTime cost) -> Task<void> { co_await cpu.Run(cost); };
  Spawn(job(10));
  Spawn(job(20));
  Spawn(job(7));
  Spawn(job(3));
  EXPECT_EQ(cpu.busy_time(), 30);  // two cores started
  EXPECT_EQ(cpu.run_queue_length(), 2u);
  // Scheduled after the 10-unit run's resume, so it observes the state
  // between that run's release (the 7-unit run left the queue) and the
  // grant event that charges the 7-unit run.
  std::vector<std::pair<SimTime, size_t>> at10;
  sim.ScheduleAt(10, [&] {
    at10.emplace_back(cpu.busy_time(), cpu.run_queue_length());
  });
  sim.RunUntil(10);
  EXPECT_EQ(at10, (std::vector<std::pair<SimTime, size_t>>{{30, 1}}));
  EXPECT_EQ(cpu.busy_time(), 37);
  EXPECT_EQ(cpu.run_queue_length(), 1u);
  sim.Run();
  EXPECT_EQ(cpu.busy_time(), 40);
  EXPECT_EQ(cpu.run_queue_length(), 0u);
  EXPECT_EQ(sim.Now(), 20);  // 10+7 on one core, 20 on the other, 3 after 17
  EXPECT_DOUBLE_EQ(cpu.Utilization(20), 1.0);
}

}  // namespace
}  // namespace switchfs::sim
