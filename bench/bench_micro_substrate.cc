// Substrate microbenchmarks (google-benchmark, wall-clock): simulator event
// throughput (callback and handle-resume events), coroutine round-trips, the
// CPU pool, lock tables, KV store, WAL, change-log append and compacted-state
// maintenance. These bound how much simulated work the figure benches can
// push per host second.
#include <benchmark/benchmark.h>

#include <coroutine>

#include "src/common/histogram.h"
#include "src/core/change_log.h"
#include "src/core/lock_table.h"
#include "src/kv/kvstore.h"
#include "src/kv/wal.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs {
namespace {

void BM_SimulatorEventDispatch(benchmark::State& state) {
  sim::Simulator s;
  uint64_t counter = 0;
  for (auto _ : state) {
    s.ScheduleAfter(1, [&counter] { counter++; });
    s.Run();
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_SimulatorEventDispatch);

// Suspends without scheduling anything, handing the handle out.
struct Park {
  std::coroutine_handle<>* out;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept { *out = h; }
  void await_resume() const noexcept {}
};

sim::Task<void> ParkUntilStopped(std::coroutine_handle<>* out,
                                 const bool* stop) {
  while (!*stop) {
    co_await Park{out};
  }
}

// The handle-resume counterpart of BM_SimulatorEventDispatch: one event that
// resumes a parked coroutine, which parks again.
void BM_SimulatorHandleResumeDispatch(benchmark::State& state) {
  sim::Simulator s;
  std::coroutine_handle<> parked;
  bool stop = false;
  sim::Spawn(ParkUntilStopped(&parked, &stop));
  for (auto _ : state) {
    s.ResumeAfter(1, parked);
    s.Run();
  }
  stop = true;
  parked.resume();  // let the frame finish
}
BENCHMARK(BM_SimulatorHandleResumeDispatch);

void BM_CoroutineDelayRoundTrip(benchmark::State& state) {
  sim::Simulator s;
  for (auto _ : state) {
    sim::Spawn([](sim::Simulator* sp) -> sim::Task<void> {
      co_await sim::Delay(sp, 1);
    }(&s));
    s.Run();
  }
}
BENCHMARK(BM_CoroutineDelayRoundTrip);

void BM_MutexHandoffChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    sim::Mutex mu(&s);
    for (int i = 0; i < 64; ++i) {
      sim::Spawn([](sim::Simulator* sp, sim::Mutex* m) -> sim::Task<void> {
        auto g = co_await m->Acquire();
        co_await sim::Delay(sp, 1);
      }(&s, &mu));
    }
    s.Run();
  }
}
BENCHMARK(BM_MutexHandoffChain);

// One CpuPool::Run on an idle core: acquire, charge, resume, release.
void BM_CpuPoolRunIdle(benchmark::State& state) {
  sim::Simulator s;
  sim::CpuPool cpu(&s, 4);
  for (auto _ : state) {
    sim::Spawn([](sim::CpuPool* c) -> sim::Task<void> {
      co_await c->Run(1);
    }(&cpu));
    s.Run();
  }
  benchmark::DoNotOptimize(cpu.busy_time());
}
BENCHMARK(BM_CpuPoolRunIdle);

// 64 runs on one core: all but the first queue and are handed the core in
// FIFO order. Items are runs.
void BM_CpuPoolRunSaturated(benchmark::State& state) {
  sim::Simulator s;
  sim::CpuPool cpu(&s, 1);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim::Spawn([](sim::CpuPool* c) -> sim::Task<void> {
        co_await c->Run(1);
      }(&cpu));
    }
    s.Run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
  benchmark::DoNotOptimize(cpu.busy_time());
}
BENCHMARK(BM_CpuPoolRunSaturated);

// An uncontended LockTable acquire and release: slot created and reclaimed.
void BM_LockTableAcquireRelease(benchmark::State& state) {
  sim::Simulator s;
  core::LockTable table(&s);
  for (auto _ : state) {
    sim::Spawn([](core::LockTable* t) -> sim::Task<void> {
      auto h = co_await t->AcquireExclusive("inode-key");
    }(&table));
    s.Run();
  }
  benchmark::DoNotOptimize(table.slot_count());
}
BENCHMARK(BM_LockTableAcquireRelease);

void BM_KvStorePut(benchmark::State& state) {
  kv::KvStore store;
  uint64_t i = 0;
  for (auto _ : state) {
    store.Put("key" + std::to_string(i++ & 0xffff), "value");
  }
  benchmark::DoNotOptimize(store.size());
}
BENCHMARK(BM_KvStorePut);

void BM_KvStoreGet(benchmark::State& state) {
  kv::KvStore store;
  for (int i = 0; i < 1 << 16; ++i) {
    store.Put("key" + std::to_string(i), "value");
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get("key" + std::to_string(i++ & 0xffff)));
  }
}
BENCHMARK(BM_KvStoreGet);

void BM_WalAppend(benchmark::State& state) {
  kv::Wal wal;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(1, "payload-of-a-typical-record"));
    if (wal.record_count() > 1 << 18) {
      state.PauseTiming();
      wal.TruncateUpTo(wal.next_lsn() - 2);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_WalAppend);

void BM_ChangeLogAppendAck(benchmark::State& state) {
  core::ChangeLog log(core::InodeId{}, 1);
  uint64_t acked = 0;
  for (auto _ : state) {
    core::ChangeLogEntry e;
    e.timestamp = 1;
    e.name = "file";
    e.size_delta = 1;
    const uint64_t seq = log.Append(std::move(e));
    if (log.size() >= 29) {
      acked += log.AckUpTo(seq).size();
    }
  }
  benchmark::DoNotOptimize(acked);
}
BENCHMARK(BM_ChangeLogAppendAck);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  int64_t v = 1;
  for (auto _ : state) {
    h.Record(v);
    v = (v * 2862933555777941757LL + 3037000493LL) & 0xfffff;
  }
  benchmark::DoNotOptimize(h.Mean());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace
}  // namespace switchfs

BENCHMARK_MAIN();
