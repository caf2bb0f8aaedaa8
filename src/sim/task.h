// Coroutine task type for simulator-driven protocol code. Mirrors the
// structure of the paper's coroutine-based RPC engine (§7.1): server handlers
// and client operations are lazy coroutines that co_await locks, simulated
// CPU time, and RPC completions.
//
// Lifetime rules:
//  * Task<T> is lazy; nothing runs until it is co_awaited or Spawn()ed.
//  * The awaiting coroutine owns the child Task object for the duration of
//    the await, so child frames never outlive their owners.
//  * Spawn() detaches a Task<void>; the wrapper frame self-destroys when the
//    task completes.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "src/sim/discipline.h"

namespace switchfs::sim {

template <typename T>
class Task;

namespace internal {

template <typename T>
struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;
#if SFS_DISCIPLINE_CHECKS
  // Chain identity for the dynamic discipline checker: every frame reachable
  // from one root (spawned or test-driven) coroutine shares one id, so lock
  // holds registered by LockTable acquires (deep in a callee or not)
  // attribute to the logical operation that owns them. 0 until the frame's
  // first co_await.
  uint64_t chain_id = 0;

  // Pass-through await_transform that publishes this frame's chain id so an
  // awaited child Task can inherit it (Task::Awaiter::await_suspend reads it
  // back synchronously, before any suspension can intervene), and so can a
  // LockTable acquire (its await_ready reads it the same way).
  template <typename A>
  decltype(auto) await_transform(A&& awaitable) {
    if (chain_id == 0) {
      chain_id = discipline::FreshChainId();
    }
    discipline::SetCurrentChain(chain_id);
    return std::forward<A>(awaitable);
  }
#endif

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { error = std::current_exception(); }
};

}  // namespace internal

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PromiseBase<T> {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  struct Awaiter {
    Handle h;
    bool await_ready() const noexcept { return !h || h.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      h.promise().continuation = cont;
#if SFS_DISCIPLINE_CHECKS
      h.promise().chain_id = discipline::CurrentChain();
#endif
      return h;  // symmetric transfer: start (or resume into) the child
    }
    T await_resume() {
      auto& p = h.promise();
      if (p.error) {
        std::rethrow_exception(p.error);
      }
      assert(p.value.has_value());
      return *std::move(p.value);
    }
  };

  Awaiter operator co_await() const& noexcept { return Awaiter{handle_}; }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::PromiseBase<void> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  struct Awaiter {
    Handle h;
    bool await_ready() const noexcept { return !h || h.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      h.promise().continuation = cont;
#if SFS_DISCIPLINE_CHECKS
      h.promise().chain_id = discipline::CurrentChain();
#endif
      return h;
    }
    void await_resume() {
      auto& p = h.promise();
      if (p.error) {
        std::rethrow_exception(p.error);
      }
    }
  };

  Awaiter operator co_await() const& noexcept { return Awaiter{handle_}; }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

namespace internal {

// Self-destroying wrapper used by Spawn(). The wrapper frame owns the
// spawned Task and is torn down automatically at final_suspend.
struct DetachedTask {
  struct promise_type {
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
#if SFS_DISCIPLINE_CHECKS
    // Each spawned root starts a fresh discipline chain; the awaited Task
    // inherits the id via Task::Awaiter::await_suspend.
    template <typename A>
    decltype(auto) await_transform(A&& awaitable) {
      discipline::SetCurrentChain(discipline::FreshChainId());
      return std::forward<A>(awaitable);
    }
#endif
  };
};

inline DetachedTask RunDetached(Task<void> task) { co_await task; }

}  // namespace internal

// Starts `task` immediately and detaches it. The task's frame (and anything
// owned by it) is destroyed when it completes. Uncaught exceptions terminate.
inline void Spawn(Task<void> task) {
  internal::RunDetached(std::move(task));
}

}  // namespace switchfs::sim

#endif  // SRC_SIM_TASK_H_
