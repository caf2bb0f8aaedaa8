// Reference-counted table of per-key reader/writer locks, used for inode
// locks and change-log locks on metadata servers. Slots are created on first
// acquisition and reclaimed when the last holder/waiter releases, so the
// table's footprint tracks the working set rather than the filesystem size.
//
// Each table carries a sim::LockClass describing its role in the server's
// lock order; in SFS_DISCIPLINE_CHECKS builds every acquire and grant is
// registered with the DisciplineChecker under the acquiring coroutine chain,
// with its mode (exclusive, or shared in a sim::ShareClass), which enforces
// the append-innermost, evict-requires-lock, cross-shard-lock and
// reentrant-lock rules at runtime.
#ifndef SRC_CORE_LOCK_TABLE_H_
#define SRC_CORE_LOCK_TABLE_H_

#include <cassert>
#include <coroutine>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/annotations.h"
#include "src/sim/discipline.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace switchfs::core {

class SFS_LOCKABLE LockTable {
 public:
  // `shard` is the table's shard domain tag for the cross-shard-lock rule
  // (src/sim/discipline.h): every per-shard table carries a process-unique
  // tag, so a chain mixing same-class locks from two shards is caught even
  // across server incarnations. -1 = untagged (clients, baselines, tests).
  explicit LockTable(sim::Simulator* sim,
                     sim::LockClass cls = sim::LockClass::kOther,
                     int shard = -1)
      : sim_(sim), class_(cls), shard_(shard) {}
  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  class [[nodiscard]] Handle {
   public:
    Handle() = default;
    Handle(LockTable* table, std::string key, sim::SharedMutex::Guard guard,
           uint64_t hold_id)
        : table_(table),
          key_(std::move(key)),
          guard_(std::move(guard)),
          hold_id_(hold_id) {}
    Handle(Handle&& o) noexcept
        : table_(std::exchange(o.table_, nullptr)),
          key_(std::move(o.key_)),
          guard_(std::move(o.guard_)),
          hold_id_(std::exchange(o.hold_id_, 0)) {}
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        Release();
        table_ = std::exchange(o.table_, nullptr);
        key_ = std::move(o.key_);
        guard_ = std::move(o.guard_);
        hold_id_ = std::exchange(o.hold_id_, 0);
      }
      return *this;
    }
    ~Handle() { Release(); }

    void Release() {
      if (table_ != nullptr) {
#if SFS_DISCIPLINE_CHECKS
        sim::DisciplineChecker::OnReleased(std::exchange(hold_id_, 0));
#endif
        guard_.Release();
        std::exchange(table_, nullptr)->Unref(key_);
      }
    }
    bool held() const { return table_ != nullptr; }

   private:
    LockTable* table_ = nullptr;
    std::string key_;
    sim::SharedMutex::Guard guard_;
    uint64_t hold_id_ = 0;
  };

  // Awaiter returned by AcquireShared/AcquireExclusive: `co_await` yields a
  // held Handle. When awaited it pins the key's slot and constructs the
  // slot's SharedMutex::Acquirer inline, so a queued acquire waits in the
  // awaiting frame itself — no coroutine frame, no queue allocation.
  class [[nodiscard]] Acquirer {
   public:
    Acquirer(LockTable* table, std::string key, bool exclusive,
             sim::ShareClass share_class)
        : table_(table),
          key_(std::move(key)),
          exclusive_(exclusive),
          share_class_(share_class) {}

    bool await_ready() {
#if SFS_DISCIPLINE_CHECKS
      // The awaiting coroutine's await_transform has just published its
      // chain; read it before any suspension can intervene.
      chain_ = sim::discipline::CurrentChain();
      sim::DisciplineChecker::OnAcquiring(chain_, table_->class_, key_,
                                          table_->shard_);
#endif
      acquirer_.emplace(&table_->Ref(key_).mu, exclusive_, share_class_);
      return acquirer_->await_ready();
    }
    void await_suspend(std::coroutine_handle<> h) {
      acquirer_->await_suspend(h);
    }
    Handle await_resume() {
      sim::SharedMutex::Guard guard = acquirer_->await_resume();
      uint64_t hold_id = 0;
#if SFS_DISCIPLINE_CHECKS
      hold_id = sim::DisciplineChecker::OnAcquired(
          chain_, table_->class_, exclusive_, key_, table_->shard_,
          share_class_);
#endif
      return Handle(table_, std::move(key_), std::move(guard), hold_id);
    }

   private:
    LockTable* table_;
    std::string key_;
    bool exclusive_;
    sim::ShareClass share_class_;
    std::optional<sim::SharedMutex::Acquirer> acquirer_;
#if SFS_DISCIPLINE_CHECKS
    uint64_t chain_ = 0;
#endif
  };

  // Shared holders of one share class are compatible; two classes exclude
  // each other (sim::SharedMutex).
  Acquirer AcquireShared(std::string key, sim::ShareClass share_class = 0) {
    return Acquirer(this, std::move(key), /*exclusive=*/false, share_class);
  }
  Acquirer AcquireExclusive(std::string key) {
    return Acquirer(this, std::move(key), /*exclusive=*/true, 0);
  }

  size_t slot_count() const { return slots_.size(); }
  sim::LockClass lock_class() const { return class_; }
  int shard() const { return shard_; }

 private:
  // Lives in its map node (node addresses are stable across rehashing), so
  // a slot allocates nothing beyond the node itself.
  struct Slot {
    explicit Slot(sim::Simulator* sim) : mu(sim) {}
    sim::SharedMutex mu;
    int refs = 0;
  };

  Slot& Ref(const std::string& key) {
    Slot& slot = slots_.try_emplace(key, sim_).first->second;
    slot.refs++;
    return slot;
  }

  void Unref(const std::string& key) {
    auto it = slots_.find(key);
    assert(it != slots_.end());
    if (--it->second.refs == 0) {
      slots_.erase(it);
    }
  }

  sim::Simulator* sim_;
  sim::LockClass class_;
  int shard_ = -1;
  std::unordered_map<std::string, Slot> slots_;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_LOCK_TABLE_H_
