// Single-threaded deterministic discrete-event simulator.
//
// Two kinds of event share one queue:
//  * handle resumes (ResumeAt/ResumeAfter) — the coroutine handle is stored
//    in the entry itself, so resuming a suspended coroutine costs no
//    allocation and no type erasure. Delay, the primitives in sync.h and
//    CpuPool::Run resume their waiters this way;
//  * generic callbacks (ScheduleAt/ScheduleAfter) — the std::function lives
//    in a reusable slot table and the entry carries its index.
// The queue is a flat 4-ary min-heap of trivially-copyable {at, seq, payload}
// entries. Both kinds draw `seq` from one counter, so events with equal
// timestamps fire in scheduling order whatever their kind (FIFO tie-break).
// That makes every run with the same seed bit-for-bit reproducible — a
// property the integration and property tests rely on.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace switchfs::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules fn to run at absolute time `at` (clamped to Now()).
  void ScheduleAt(SimTime at, std::function<void()> fn);
  // Schedules fn to run `delay` after Now().
  void ScheduleAfter(SimTime delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Resumes coroutine `h` at absolute time `at` (clamped to Now()).
  void ResumeAt(SimTime at, std::coroutine_handle<> h) {
    Push(at, reinterpret_cast<uintptr_t>(h.address()));
  }
  // Resumes coroutine `h` `delay` after Now().
  void ResumeAfter(SimTime delay, std::coroutine_handle<> h) {
    ResumeAt(now_ + delay, h);
  }

  // Runs until the event queue is empty. Returns the final time.
  SimTime Run();
  // Runs until the queue is empty or simulated time would exceed `deadline`.
  // Events at exactly `deadline` are executed.
  SimTime RunUntil(SimTime deadline);
  // Executes at most one event; returns false if the queue was empty.
  bool Step();

  // ---- work sources (run-while-work-pending mode) -------------------------
  // A work source is a component holding work the event queue cannot see:
  // tasks parked in per-shard run queues, standing control-plane backlogs.
  // `pending` reports how much is queued; `kick` starts drains for it
  // (scheduling events). Sources let RunWhileWorkPending make background
  // work progress without an external op driving it.
  struct WorkSource {
    std::function<size_t()> pending;
    std::function<void()> kick;
  };
  uint64_t RegisterWorkSource(WorkSource source);
  void UnregisterWorkSource(uint64_t id);
  size_t pending_source_work() const;

  // Like Run()/RunUntil(deadline), but after the event queue drains, polls
  // the registered work sources: if any reports pending work, kicks them
  // all and keeps running. Returns when (a) the queue is empty AND every
  // source reports zero pending, (b) the deadline passes, or (c) a kick
  // round makes no progress (no events scheduled and pending unchanged —
  // a stuck source must not livelock the loop).
  SimTime RunWhileWorkPending(SimTime deadline = kSimTimeMax);

 private:
  // `payload` is a coroutine frame address (at least 2-byte aligned, so its
  // low bit is 0) or (callback slot index << 1) | kCallbackTag.
  struct Entry {
    SimTime at;
    uint64_t seq;
    uintptr_t payload;
  };
  static constexpr uintptr_t kCallbackTag = 1;
  static constexpr size_t kArity = 4;

  static bool Earlier(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  void Push(SimTime at, uintptr_t payload) {
    if (at < now_) {
      at = now_;
    }
    // Sift up from a hole at the end.
    const Entry e{at, next_seq_++, payload};
    size_t i = heap_.size();
    heap_.emplace_back();
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Earlier(e, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }
  // Removes the earliest entry (the heap must not be empty).
  void PopTop();
  bool HasEventBy(SimTime deadline) const {
    return !heap_.empty() && heap_.front().at <= deadline;
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;
  std::vector<std::function<void()>> callbacks_;
  std::vector<uint32_t> free_callbacks_;  // reusable callbacks_ slots
  uint64_t next_source_id_ = 1;
  std::map<uint64_t, WorkSource> sources_;  // ordered: deterministic kicks
};

}  // namespace switchfs::sim

#endif  // SRC_SIM_SIMULATOR_H_
