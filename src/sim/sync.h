// Coroutine-aware synchronization primitives on top of the simulator.
//
// All primitives are strictly FIFO and resume waiters through the simulator's
// handle-resume events (Simulator::ResumeAfter, never inline) so that (a)
// lock-handoff chains cannot recurse arbitrarily deep and (b) wakeup order is
// deterministic: a wakeup is one event in the simulator's single queue, FIFO
// against every other event at the same timestamp. Ownership is granted
// either in await_ready (fast path) or at handoff time inside the release
// path — never in await_resume — so there is no window in which a late
// arrival can steal a grant from a queued waiter.
//
// Waiter queues are intrusive: each queued awaiter is a node in a FIFO list
// and lives in its awaiting coroutine's frame for the whole wait, so
// suspending on a lock allocates nothing. None of these are thread-safe; the
// simulator is single-threaded by design.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <optional>
#include <utility>

#include "src/common/annotations.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace switchfs::sim {

namespace internal {

// Intrusive FIFO of suspended awaiters. `Node` exposes a `queue_next_`
// pointer (befriend WaitQueue<Node> to keep it private). A node must stay
// put while queued — true of an awaiter, which lives in the awaiting frame
// until the co_await completes. (Awaiters stay copyable: GCC copies one
// returned by reference from an await_transform into the frame, before
// await_ready, so the copy is the node that gets queued.)
template <typename Node>
class WaitQueue {
 public:
  bool empty() const { return head_ == nullptr; }
  size_t size() const { return size_; }
  Node* front() const { return head_; }
  void push_back(Node* n) {
    n->queue_next_ = nullptr;
    if (tail_ != nullptr) {
      tail_->queue_next_ = n;
    } else {
      head_ = n;
    }
    tail_ = n;
    ++size_;
  }
  Node* pop_front() {
    Node* n = head_;
    head_ = n->queue_next_;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    --size_;
    return n;
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  size_t size_ = 0;
};

}  // namespace internal

// Suspends the awaiting coroutine for `delay` simulated nanoseconds.
class Delay {
 public:
  Delay(Simulator* sim, SimTime delay) : sim_(sim), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim_->ResumeAfter(delay_, h);
  }
  void await_resume() const noexcept {}

 private:
  Simulator* sim_;
  SimTime delay_;
};

// Exclusive mutex with FIFO handoff. Usage:
//   auto guard = co_await mu.Acquire();
class SFS_LOCKABLE Mutex {
 public:
  explicit Mutex(Simulator* sim) : sim_(sim) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  class [[nodiscard]] Guard {
   public:
    Guard() = default;
    explicit Guard(Mutex* mu) : mu_(mu) {}
    Guard(Guard&& o) noexcept : mu_(std::exchange(o.mu_, nullptr)) {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        Release();
        mu_ = std::exchange(o.mu_, nullptr);
      }
      return *this;
    }
    ~Guard() { Release(); }

    void Release() {
      if (mu_ != nullptr) {
        std::exchange(mu_, nullptr)->Unlock();
      }
    }
    bool held() const { return mu_ != nullptr; }

   private:
    Mutex* mu_ = nullptr;
  };

  class [[nodiscard]] Acquirer {
   public:
    explicit Acquirer(Mutex* mu) : mu_(mu) {}
    bool await_ready() noexcept {
      if (!mu_->locked_) {
        mu_->locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      mu_->waiters_.push_back(this);
    }
    // On the queued path the lock was handed off (still locked_) before the
    // resume was scheduled, so ownership is already ours here.
    Guard await_resume() { return Guard(mu_); }

   private:
    friend class Mutex;
    friend class internal::WaitQueue<Acquirer>;
    Mutex* mu_;
    std::coroutine_handle<> handle_;
    Acquirer* queue_next_ = nullptr;
  };

  Acquirer Acquire() { return Acquirer(this); }
  bool locked() const { return locked_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  void Unlock() {
    assert(locked_);
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    // FIFO handoff: the lock stays held and transfers to the front waiter.
    sim_->ResumeAfter(0, waiters_.pop_front()->handle_);
  }

  Simulator* sim_;
  bool locked_ = false;
  internal::WaitQueue<Acquirer> waiters_;
};

// Reader/writer lock with strict FIFO admission (no reader or writer
// starvation): a reader queued behind a writer waits for that writer;
// consecutive queued readers are admitted as a batch.
class SFS_LOCKABLE SharedMutex {
 public:
  explicit SharedMutex(Simulator* sim) : sim_(sim) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  class [[nodiscard]] Guard {
   public:
    Guard() = default;
    Guard(SharedMutex* mu, bool exclusive) : mu_(mu), exclusive_(exclusive) {}
    Guard(Guard&& o) noexcept
        : mu_(std::exchange(o.mu_, nullptr)), exclusive_(o.exclusive_) {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        Release();
        mu_ = std::exchange(o.mu_, nullptr);
        exclusive_ = o.exclusive_;
      }
      return *this;
    }
    ~Guard() { Release(); }

    void Release() {
      if (mu_ != nullptr) {
        auto* mu = std::exchange(mu_, nullptr);
        if (exclusive_) {
          mu->UnlockExclusive();
        } else {
          mu->UnlockShared();
        }
      }
    }
    bool held() const { return mu_ != nullptr; }

   private:
    SharedMutex* mu_ = nullptr;
    bool exclusive_ = false;
  };

  class [[nodiscard]] Acquirer {
   public:
    Acquirer(SharedMutex* mu, bool exclusive) : mu_(mu), exclusive_(exclusive) {}
    bool await_ready() noexcept {
      if (!mu_->waiters_.empty()) {
        return false;  // strict FIFO: never bypass the queue
      }
      if (exclusive_) {
        if (!mu_->writer_ && mu_->readers_ == 0) {
          mu_->writer_ = true;
          return true;
        }
        return false;
      }
      if (!mu_->writer_) {
        mu_->readers_++;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      mu_->waiters_.push_back(this);
    }
    Guard await_resume() { return Guard(mu_, exclusive_); }

   private:
    friend class SharedMutex;
    friend class internal::WaitQueue<Acquirer>;
    SharedMutex* mu_;
    bool exclusive_;
    std::coroutine_handle<> handle_;
    Acquirer* queue_next_ = nullptr;
  };

  Acquirer AcquireShared() { return Acquirer(this, false); }
  Acquirer AcquireExclusive() { return Acquirer(this, true); }

  int readers() const { return readers_; }
  bool has_writer() const { return writer_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  void UnlockShared() {
    assert(readers_ > 0);
    if (--readers_ == 0) {
      Admit();
    }
  }
  void UnlockExclusive() {
    assert(writer_);
    writer_ = false;
    Admit();
  }

  // Grants the queue front. Grants are reflected in readers_/writer_
  // immediately (before the waiter physically resumes) so later arrivals and
  // unlocks observe a consistent reservation state.
  void Admit() {
    if (writer_ || readers_ > 0 || waiters_.empty()) {
      return;
    }
    if (waiters_.front()->exclusive_) {
      writer_ = true;
      sim_->ResumeAfter(0, waiters_.pop_front()->handle_);
      return;
    }
    while (!waiters_.empty() && !waiters_.front()->exclusive_) {
      readers_++;
      sim_->ResumeAfter(0, waiters_.pop_front()->handle_);
    }
  }

  Simulator* sim_;
  int readers_ = 0;
  bool writer_ = false;
  internal::WaitQueue<Acquirer> waiters_;
};

// Manual-reset event: Wait() suspends until Set() has been called.
class ManualEvent {
 public:
  explicit ManualEvent(Simulator* sim) : sim_(sim) {}
  ManualEvent(const ManualEvent&) = delete;
  ManualEvent& operator=(const ManualEvent&) = delete;

  class [[nodiscard]] Waiter {
   public:
    explicit Waiter(ManualEvent* ev) : ev_(ev) {}
    bool await_ready() const noexcept { return ev_->set_; }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      ev_->waiters_.push_back(this);
    }
    void await_resume() const noexcept {}

   private:
    friend class ManualEvent;
    friend class internal::WaitQueue<Waiter>;
    ManualEvent* ev_;
    std::coroutine_handle<> handle_;
    Waiter* queue_next_ = nullptr;
  };

  Waiter Wait() { return Waiter(this); }

  void Set() {
    if (set_) {
      return;
    }
    set_ = true;
    while (!waiters_.empty()) {
      sim_->ResumeAfter(0, waiters_.pop_front()->handle_);
    }
  }
  void Reset() { set_ = false; }
  bool is_set() const { return set_; }

 private:
  Simulator* sim_;
  bool set_ = false;
  internal::WaitQueue<Waiter> waiters_;
};

// Counting semaphore with FIFO waiters and direct permit handoff.
class Semaphore {
 public:
  Semaphore(Simulator* sim, int64_t permits) : sim_(sim), permits_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  class [[nodiscard]] Acquirer {
   public:
    explicit Acquirer(Semaphore* sem) : sem_(sem) {}
    bool await_ready() noexcept {
      if (sem_->waiters_.empty() && sem_->permits_ > 0) {
        sem_->permits_--;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      sem_->waiters_.push_back(this);
    }
    // Queued path: the permit was transferred at Release() time.
    void await_resume() const noexcept {}

   private:
    friend class Semaphore;
    friend class internal::WaitQueue<Acquirer>;
    Semaphore* sem_;
    std::coroutine_handle<> handle_;
    Acquirer* queue_next_ = nullptr;
  };

  Acquirer Acquire() { return Acquirer(this); }

  void Release() {
    if (!waiters_.empty()) {
      // Direct handoff; permits_ is not incremented.
      sim_->ResumeAfter(0, waiters_.pop_front()->handle_);
      return;
    }
    permits_++;
  }

  int64_t permits() const { return permits_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  int64_t permits_;
  internal::WaitQueue<Acquirer> waiters_;
};

// Single-producer single-consumer completion slot, used by the RPC layer to
// join a response (or a timeout) with the awaiting caller. First Set() wins.
template <typename T>
class OneShot {
 public:
  explicit OneShot(Simulator* sim) : sim_(sim) {}

  bool Set(T value) {
    if (value_.has_value()) {
      return false;
    }
    value_ = std::move(value);
    if (waiter_) {
      sim_->ResumeAfter(0, std::exchange(waiter_, nullptr));
    }
    return true;
  }

  class [[nodiscard]] Waiter {
   public:
    explicit Waiter(OneShot* slot) : slot_(slot) {}
    bool await_ready() const noexcept { return slot_->value_.has_value(); }
    void await_suspend(std::coroutine_handle<> h) {
      assert(slot_->waiter_ == nullptr && "OneShot supports a single waiter");
      slot_->waiter_ = h;
    }
    T await_resume() { return *std::move(slot_->value_); }

   private:
    OneShot* slot_;
  };

  Waiter Wait() { return Waiter(this); }
  bool ready() const { return value_.has_value(); }

 private:
  Simulator* sim_;
  std::optional<T> value_;
  std::coroutine_handle<> waiter_ = nullptr;
};

// A join counter for fan-out/fan-in: arms with `expected` completions, each
// Done() decrements, waiters resume when the count reaches zero.
class JoinCounter {
 public:
  JoinCounter(Simulator* sim, int expected) : event_(sim), remaining_(expected) {
    if (remaining_ <= 0) {
      event_.Set();
    }
  }

  void Done() {
    assert(remaining_ > 0);
    if (--remaining_ == 0) {
      event_.Set();
    }
  }

  ManualEvent::Waiter Wait() { return event_.Wait(); }
  int remaining() const { return remaining_; }

 private:
  ManualEvent event_;
  int remaining_;
};

}  // namespace switchfs::sim

#endif  // SRC_SIM_SYNC_H_
