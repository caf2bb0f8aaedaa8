// CPU model for a simulated server: a pool of k identical cores with a FIFO
// run queue. Protocol handlers charge CPU by co_awaiting Run(cost); while a
// handler waits on a lock or an RPC it holds no core, mirroring the paper's
// coroutine-based non-blocking server design (§7.1). The per-server core
// count is the knob behind Fig 2(d) and Fig 14 (intra-server parallelism).
//
// Run(cost) is a plain awaiter, not a coroutine: the awaiting frame is the
// only frame involved, and its awaiter is the run-queue node. The events one
// Run() puts in the simulator's single queue:
//  * idle core: take it, charge `cost` to busy_time, and resume the caller at
//    Now()+cost — one handle-resume event;
//  * all cores busy: join the FIFO run queue. A release hands the core
//    straight to the queue front with a 0-delay grant event; the grant
//    charges `cost` and resumes the caller `cost` later. A newcomer never
//    bypasses a non-empty queue.
// The core is released in await_resume, before the caller continues, so a
// queued successor's grant event precedes anything the caller schedules next.
#ifndef SRC_SIM_CPU_H_
#define SRC_SIM_CPU_H_

#include <coroutine>
#include <cstdint>

#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/time.h"

namespace switchfs::sim {

class CpuPool {
 public:
  CpuPool(Simulator* sim, int cores)
      : sim_(sim), cores_(cores), free_cores_(cores) {}
  CpuPool(const CpuPool&) = delete;
  CpuPool& operator=(const CpuPool&) = delete;

  class [[nodiscard]] RunAwaiter {
   public:
    RunAwaiter(CpuPool* pool, SimTime cost) : pool_(pool), cost_(cost) {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      pool_->Enter(this);
    }
    void await_resume() { pool_->Release(); }

   private:
    friend class CpuPool;
    friend class internal::WaitQueue<RunAwaiter>;
    CpuPool* pool_;
    SimTime cost_;
    std::coroutine_handle<> handle_;
    RunAwaiter* queue_next_ = nullptr;
  };

  // Occupies one core for `cost` simulated time (FIFO queueing when all
  // cores are busy).
  RunAwaiter Run(SimTime cost) { return RunAwaiter(this, cost); }

  int cores() const { return cores_; }
  // Runs waiting for a core (granted ones are no longer counted).
  size_t run_queue_length() const { return run_queue_.size(); }
  // Total core-nanoseconds consumed; used by benches to report utilization.
  SimTime busy_time() const { return busy_time_; }
  double Utilization(SimTime elapsed) const {
    if (elapsed <= 0) {
      return 0.0;
    }
    return static_cast<double>(busy_time_) /
           (static_cast<double>(elapsed) * cores_);
  }

 private:
  void Enter(RunAwaiter* w) {
    if (run_queue_.empty() && free_cores_ > 0) {
      free_cores_--;
      Start(w);
      return;
    }
    run_queue_.push_back(w);
  }
  // `w` holds a core: charge it and resume the caller when its cost is paid.
  void Start(RunAwaiter* w) {
    busy_time_ += w->cost_;
    sim_->ResumeAfter(w->cost_, w->handle_);
  }
  void Release() {
    if (run_queue_.empty()) {
      free_cores_++;
      return;
    }
    // Direct handoff: the core passes to the queue front, which starts at
    // its grant event.
    RunAwaiter* next = run_queue_.pop_front();
    sim_->ScheduleAfter(0, [next] { next->pool_->Start(next); });
  }

  Simulator* sim_;
  int cores_;
  int free_cores_;
  internal::WaitQueue<RunAwaiter> run_queue_;
  SimTime busy_time_ = 0;
};

}  // namespace switchfs::sim

#endif  // SRC_SIM_CPU_H_
