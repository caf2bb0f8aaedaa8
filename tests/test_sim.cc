// Unit tests for the discrete-event simulator core: event ordering,
// determinism, RunUntil semantics, and coroutine task plumbing.
#include <gtest/gtest.h>

#include <coroutine>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::sim {
namespace {

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(50, [&] { fired_at = sim.Now(); });  // in the past
  });
  sim.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { fired++; });
  sim.ScheduleAt(20, [&] { fired++; });
  sim.ScheduleAt(30, [&] { fired++; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.ScheduleAt(1, [&] {
    times.push_back(sim.Now());
    sim.ScheduleAfter(5, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{1, 6}));
}

// Suspends without scheduling anything, handing the caller's handle out so
// a test can resume it through Simulator::ResumeAt.
struct Park {
  std::coroutine_handle<>* out;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept { *out = h; }
  void await_resume() const noexcept {}
};

// Parks once, then records `tag` when resumed.
Task<void> RecordOnResume(std::vector<int>* order, int tag,
                          std::coroutine_handle<>* handle) {
  co_await Park{handle};
  order->push_back(tag);
}

TEST(Simulator, HandleResumesAndCallbacksShareOneFifoAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  std::vector<std::coroutine_handle<>> handles(4);
  for (int tag : {0, 2, 5, 7}) {
    Spawn(RecordOnResume(&order, tag, &handles[tag / 2]));
  }
  ASSERT_TRUE(order.empty());
  sim.ResumeAt(10, handles[0]);                        // 0
  sim.ScheduleAt(10, [&] { order.push_back(1); });     // 1
  sim.ResumeAt(10, handles[1]);                        // 2
  sim.ScheduleAt(10, [&] {                             // 3
    order.push_back(3);
    // Scheduled from inside a running event: past times clamp to Now()
    // and queue behind everything already due at 10, in scheduling order.
    sim.ScheduleAt(4, [&] { order.push_back(4); });
    sim.ResumeAt(2, handles[2]);                       // 5
    sim.ScheduleAfter(0, [&] { order.push_back(6); });
    sim.ResumeAfter(0, handles[3]);                    // 7
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim.Now(), 10);
}

// Drives 100k events of both kinds through the queue at random times (many
// equal, some in the past, most scheduled from inside running events) and
// checks every pop against a reference std::priority_queue on (at, seq).
class HeapOrderCheck {
 public:
  static constexpr int kEvents = 100000;
  static constexpr int kParked = 512;

  void Run() {
    slots_.resize(kParked);
    for (int i = 0; i < kParked; ++i) {
      parked_.push_back(i);
      Spawn(ParkLoop(this, i));
    }
    for (int i = 0; i < kParked; ++i) {
      ScheduleOne();
    }
    sim_.Run();
    // Every loop is parked again once the queue drains; let them finish.
    for (Slot& slot : slots_) {
      slot.id = -1;
      slot.handle.resume();
    }
  }

  int scheduled() const { return scheduled_; }
  int fired() const { return fired_; }
  int handle_events() const { return handle_events_; }
  int mismatches() const { return mismatches_; }
  bool reference_drained() const { return reference_.empty(); }

 private:
  struct Slot {
    std::coroutine_handle<> handle;
    int id = -1;  // event to report when resumed; -1 = exit the loop
  };
  // (at, seq, event id), smallest first.
  using Key = std::tuple<SimTime, uint64_t, int>;

  static Task<void> ParkLoop(HeapOrderCheck* self, int index) {
    for (;;) {
      co_await Park{&self->slots_[index].handle};
      if (self->slots_[index].id < 0) {
        co_return;
      }
      self->Fired(self->slots_[index].id);
      self->parked_.push_back(index);
    }
  }

  void ScheduleOne() {
    if (scheduled_ == kEvents) {
      return;
    }
    const int id = scheduled_++;
    // Coarse times force many ties; a few land in the past and clamp.
    const SimTime at = sim_.Now() + static_cast<SimTime>(rng_() % 40) - 4;
    reference_.emplace(at < sim_.Now() ? sim_.Now() : at, seq_++, id);
    if (!parked_.empty() && rng_() % 2 == 0) {
      Slot& slot = slots_[parked_.back()];
      parked_.pop_back();
      slot.id = id;
      sim_.ResumeAt(at, slot.handle);
      handle_events_++;
    } else {
      sim_.ScheduleAt(at, [this, id] { Fired(id); });
    }
  }

  void Fired(int id) {
    fired_++;
    if (reference_.empty() || std::get<0>(reference_.top()) != sim_.Now() ||
        std::get<2>(reference_.top()) != id) {
      mismatches_++;
    } else {
      reference_.pop();
    }
    const int fanout = static_cast<int>(rng_() % 3);  // 1 on average
    for (int i = 0; i < fanout; ++i) {
      ScheduleOne();
    }
    if (reference_.empty()) {
      ScheduleOne();  // keep the run alive until kEvents are scheduled
    }
  }

  Simulator sim_;
  std::mt19937_64 rng_{7919};
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> reference_;
  uint64_t seq_ = 0;
  std::vector<Slot> slots_;
  std::vector<int> parked_;
  int scheduled_ = 0;
  int fired_ = 0;
  int handle_events_ = 0;
  int mismatches_ = 0;
};

TEST(Simulator, RandomizedHeapPopsMatchAReferenceQueue) {
  HeapOrderCheck check;
  check.Run();
  EXPECT_EQ(check.scheduled(), HeapOrderCheck::kEvents);
  EXPECT_EQ(check.fired(), HeapOrderCheck::kEvents);
  EXPECT_EQ(check.mismatches(), 0);
  EXPECT_TRUE(check.reference_drained());
  EXPECT_GT(check.handle_events(), HeapOrderCheck::kEvents / 4);
}

// --- coroutine task tests ---

Task<int> ReturnAfter(Simulator* sim, SimTime d, int v) {
  co_await Delay(sim, d);
  co_return v;
}

Task<void> Accumulate(Simulator* sim, std::vector<int>* out) {
  out->push_back(co_await ReturnAfter(sim, 10, 1));
  out->push_back(co_await ReturnAfter(sim, 10, 2));
  out->push_back(co_await ReturnAfter(sim, 10, 3));
}

TEST(Task, SequentialAwaitsAccumulateDelay) {
  Simulator sim;
  std::vector<int> out;
  Spawn(Accumulate(&sim, &out));
  sim.Run();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Task, SpawnRunsEagerlyUntilFirstSuspension) {
  Simulator sim;
  bool started = false;
  bool finished = false;
  Spawn([](Simulator* s, bool* st, bool* fin) -> Task<void> {
    *st = true;
    co_await Delay(s, 5);
    *fin = true;
  }(&sim, &started, &finished));
  EXPECT_TRUE(started);
  EXPECT_FALSE(finished);
  sim.Run();
  EXPECT_TRUE(finished);
}

TEST(Task, ValueTaskCompletingSynchronously) {
  Simulator sim;
  int got = 0;
  Spawn([](int* out) -> Task<void> {
    auto immediate = []() -> Task<int> { co_return 42; };
    *out = co_await immediate();
  }(&got));
  sim.Run();
  EXPECT_EQ(got, 42);
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::string trace_a;
  std::string trace_b;
  auto worker = [](Simulator* s, std::string* trace, char tag,
                   SimTime step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await Delay(s, step);
      trace->push_back(tag);
    }
  };
  Spawn(worker(&sim, &trace_a, 'a', 10));
  Spawn(worker(&sim, &trace_b, 'b', 15));
  sim.Run();
  EXPECT_EQ(trace_a, "aaa");
  EXPECT_EQ(trace_b, "bbb");
  EXPECT_EQ(sim.Now(), 45);
}

}  // namespace
}  // namespace switchfs::sim
