#include "src/sim/simulator.h"

#include <utility>

namespace switchfs::sim {

void Simulator::ScheduleAt(SimTime at, std::function<void()> fn) {
  auto slot = static_cast<uint32_t>(callbacks_.size());
  if (free_callbacks_.empty()) {
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  Push(at, (static_cast<uintptr_t>(slot) << 1) | kCallbackTag);
}

void Simulator::PopTop() {
  // Sift the last entry down from a hole at the root.
  const Entry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t i = 0;
  for (;;) {
    const size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    const size_t end = first + kArity < n ? first + kArity : n;
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  const Entry ev = heap_.front();
  PopTop();
  now_ = ev.at;
  if ((ev.payload & kCallbackTag) == 0) {
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev.payload))
        .resume();
    return true;
  }
  // Move the callback out before running it: it may schedule callbacks of
  // its own, which can reuse the freed slot or grow the table.
  const auto slot = static_cast<uint32_t>(ev.payload >> 1);
  std::function<void()> fn = std::move(callbacks_[slot]);
  free_callbacks_.push_back(slot);
  fn();
  return true;
}

SimTime Simulator::Run() {
  while (Step()) {
  }
  return now_;
}

SimTime Simulator::RunUntil(SimTime deadline) {
  while (HasEventBy(deadline)) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

uint64_t Simulator::RegisterWorkSource(WorkSource source) {
  const uint64_t id = next_source_id_++;
  sources_.emplace(id, std::move(source));
  return id;
}

void Simulator::UnregisterWorkSource(uint64_t id) { sources_.erase(id); }

size_t Simulator::pending_source_work() const {
  size_t n = 0;
  for (const auto& [id, source] : sources_) {
    n += source.pending();
  }
  return n;
}

SimTime Simulator::RunWhileWorkPending(SimTime deadline) {
  for (;;) {
    // Drain the visible event queue first (bounded by the deadline).
    while (HasEventBy(deadline)) {
      Step();
    }
    if (!heap_.empty()) {
      return now_;  // remaining events are all past the deadline
    }
    const size_t before = pending_source_work();
    if (before == 0) {
      return now_;  // quiescent: no events, no parked work
    }
    // Kick every source with parked work; their drains schedule events.
    for (auto& [id, source] : sources_) {
      if (source.pending() > 0) {
        source.kick();
      }
    }
    // Livelock guard: a kick that schedules nothing and shrinks nothing is
    // a stuck source — stop rather than spin forever.
    if (heap_.empty() && pending_source_work() >= before) {
      return now_;
    }
  }
}

}  // namespace switchfs::sim
