// Dynamic lock-discipline checker (src/sim/discipline.h): proves the checker
// fires on a non-innermost append-mutex acquisition, on a switch-cache evict
// run without the exclusive inode lock and on a chain re-acquiring a lock it
// holds, and stays silent on the disciplined orders. The checks compile away
// under NDEBUG, so this test links the switchfs_discipline library variant,
// built with SFS_DISCIPLINE_CHECKS=1, and runs in every build type.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/cache_evict.h"
#include "src/core/keys.h"
#include "src/core/lock_table.h"
#include "src/core/server_context.h"
#include "src/net/network.h"
#include "src/net/rpc.h"
#include "src/sim/costs.h"
#include "src/sim/discipline.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace switchfs {
namespace {

using core::ClAppendKey;
using core::InodeKey;
using core::LockTable;

core::InodeId Dir(uint64_t n) {
  core::InodeId id;
  id.w[0] = n;
  return id;
}

class DisciplineTest : public ::testing::Test {
 protected:
  static_assert(SFS_DISCIPLINE_CHECKS,
                "link against switchfs_discipline (CMakeLists.txt)");

  void SetUp() override {
    sim::DisciplineChecker::Reset();
    sim::DisciplineChecker::SetHandler(
        [this](const sim::DisciplineChecker::Violation& v) {
          violations_.push_back(v);
        });
  }
  void TearDown() override {
    sim::DisciplineChecker::SetHandler(nullptr);
    sim::DisciplineChecker::Reset();
  }

  std::vector<sim::DisciplineChecker::Violation> violations_;
};

TEST_F(DisciplineTest, AppendMutexAcquiredNonInnermostFires) {
  sim::Simulator sim;
  LockTable inode_locks(&sim, sim::LockClass::kInode);
  LockTable append_locks(&sim, sim::LockClass::kAppend);
  bool done = false;
  sim::Spawn([](LockTable* inode, LockTable* append,
                bool* flag) -> sim::Task<void> {
    // Violating order: another class acquired while the append mutex is held.
    auto append_lock = co_await append->AcquireExclusive(ClAppendKey(7, Dir(1)));
    auto ino_lock = co_await inode->AcquireExclusive(InodeKey(Dir(1), "f"));
    *flag = true;
  }(&inode_locks, &append_locks, &done));
  sim.Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].rule, "append-innermost");
}

TEST_F(DisciplineTest, InnermostAppendOrderIsSilent) {
  sim::Simulator sim;
  LockTable inode_locks(&sim, sim::LockClass::kInode);
  LockTable append_locks(&sim, sim::LockClass::kAppend);
  bool done = false;
  sim::Spawn([](LockTable* inode, LockTable* append,
                bool* flag) -> sim::Task<void> {
    auto ino_lock = co_await inode->AcquireExclusive(InodeKey(Dir(1), "f"));
    auto append_lock = co_await append->AcquireExclusive(ClAppendKey(7, Dir(1)));
    *flag = true;
  }(&inode_locks, &append_locks, &done));
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(DisciplineTest, SecondAppendMutexIsAllowed) {
  // The moved_fp rebind takes the (old, new) append pair in key order
  // (PushEngine::RebindMovedLog); same-class acquisition is not a violation.
  sim::Simulator sim;
  LockTable append_locks(&sim, sim::LockClass::kAppend);
  bool done = false;
  sim::Spawn([](LockTable* append, bool* flag) -> sim::Task<void> {
    auto first = co_await append->AcquireExclusive(ClAppendKey(7, Dir(1)));
    auto second = co_await append->AcquireExclusive(ClAppendKey(9, Dir(1)));
    *flag = true;
  }(&append_locks, &done));
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(DisciplineTest, HoldsFollowTheAwaitChainAcrossSubcoroutines) {
  // A lock acquired by a child coroutine counts for the parent's chain, and
  // an interleaved chain does not inherit it: the second spawned root takes
  // the append mutex with no inode lock of its OWN and still reports no
  // cross-talk from the first chain's live inode hold.
  sim::Simulator sim;
  LockTable inode_locks(&sim, sim::LockClass::kInode);
  LockTable append_locks(&sim, sim::LockClass::kAppend);
  int done = 0;
  auto child_acquire = [](LockTable* t, std::string key) -> sim::Task<LockTable::Handle> {
    co_return co_await t->AcquireExclusive(std::move(key));
  };
  sim::Spawn([](decltype(child_acquire)* child, LockTable* inode,
                LockTable* append, sim::Simulator* s,
                int* flag) -> sim::Task<void> {
    auto ino_lock = co_await (*child)(inode, InodeKey(Dir(1), "a"));
    co_await sim::Delay(s, 100);  // hold across the other chain's run
    auto append_lock = co_await append->AcquireExclusive(ClAppendKey(7, Dir(1)));
    ++*flag;
  }(&child_acquire, &inode_locks, &append_locks, &sim, &done));
  sim::Spawn([](LockTable* append, int* flag) -> sim::Task<void> {
    auto append_lock = co_await append->AcquireExclusive(ClAppendKey(9, Dir(2)));
    ++*flag;
  }(&append_locks, &done));
  sim.Run();
  ASSERT_EQ(done, 2);
  EXPECT_TRUE(violations_.empty());
  EXPECT_EQ(sim::DisciplineChecker::live_holds(), 0u);
}

// reentrant-lock: a chain acquiring a change-log group lock it already
// holds is reported when the acquire starts. This one is a same-class shared
// re-acquire, which an empty queue grants; behind a queued collect session
// it would wait for the chain itself.
TEST_F(DisciplineTest, ReacquiringAHeldLockFires) {
  sim::Simulator sim;
  LockTable cl_locks(&sim, sim::LockClass::kChangelogGroup, /*shard=*/3);
  bool done = false;
  sim::Spawn([](LockTable* cl, bool* flag) -> sim::Task<void> {
    auto first = co_await cl->AcquireShared(core::FpKey(5), core::kClAppenders);
    auto again = co_await cl->AcquireShared(core::FpKey(5), core::kClAppenders);
    auto other = co_await cl->AcquireShared(core::FpKey(6), core::kClAppenders);
    *flag = true;
  }(&cl_locks, &done));
  sim.Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].rule, "reentrant-lock");
  EXPECT_NE(violations_[0].detail.find("shared/1"), std::string::npos)
      << violations_[0].detail;
}

// Drives the real EvictSwitchCacheEntry against a minimal server context:
// switch_cache on and the fingerprint marked installed, so the evict gate is
// passed and the lock check runs. No switch exists on the network, so the
// round trip exhausts its 1-attempt budget and returns.
class EvictFixture {
 public:
  EvictFixture() : net_(&sim_, &costs_, /*seed=*/1), rpc_(&sim_, &net_) {
    net_.SetSwitch(&plain_switch_);
    config_.switch_cache = true;
    config_.cache_evict_max_attempts = 1;
    config_.cache_evict_timeout = sim::Microseconds(10);
    ctx_.sim = &sim_;
    ctx_.net = &net_;
    ctx_.config = &config_;
    ctx_.costs = &costs_;
    ctx_.stats = &stats_;
    ctx_.rpc = &rpc_;
    vol_ = std::make_shared<core::ServerVolatile>(&sim_);
    vol_->cached_fps.insert(kFp);
  }

  static constexpr psw::Fingerprint kFp = 42;
  sim::Simulator sim_;
  sim::CostModel costs_;
  net::PlainSwitch plain_switch_{sim::Nanoseconds(100)};
  net::Network net_;
  net::RpcEndpoint rpc_;
  core::ServerConfig config_;
  core::ServerStats stats_;
  core::ServerContext ctx_;
  core::VolPtr vol_;
};

TEST_F(DisciplineTest, UnlockedEvictFires) {
  EvictFixture fx;
  bool done = false;
  sim::Spawn([](EvictFixture* fx, bool* flag) -> sim::Task<void> {
    // No inode lock held by this chain: the checker must fire.
    co_await core::EvictSwitchCacheEntry(fx->ctx_, fx->vol_, EvictFixture::kFp);
    *flag = true;
  }(&fx, &done));
  fx.sim_.Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].rule, "evict-requires-lock");
}

TEST_F(DisciplineTest, EvictUnderExclusiveInodeLockIsSilent) {
  EvictFixture fx;
  bool done = false;
  sim::Spawn([](EvictFixture* fx, bool* flag) -> sim::Task<void> {
    auto lock =
        co_await fx->vol_->ShardForKey(InodeKey(Dir(1), "f"))
            .inode_locks.AcquireExclusive(InodeKey(Dir(1), "f"));
    co_await core::EvictSwitchCacheEntry(fx->ctx_, fx->vol_, EvictFixture::kFp);
    *flag = true;
  }(&fx, &done));
  fx.sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(DisciplineTest, ExternalWitnessSkipsTheChainCheck) {
  // Rename 2PC commit leg: the lock lives in v->txn_locks, held by the
  // prepare leg's chain — kExternal must not fire on the commit chain.
  EvictFixture fx;
  bool done = false;
  sim::Spawn([](EvictFixture* fx, bool* flag) -> sim::Task<void> {
    co_await core::EvictSwitchCacheEntry(fx->ctx_, fx->vol_, EvictFixture::kFp,
                                         core::EvictLockWitness::kExternal);
    *flag = true;
  }(&fx, &done));
  fx.sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(DisciplineTest, SharedInodeLockDoesNotSatisfyTheEvict) {
  EvictFixture fx;
  bool done = false;
  sim::Spawn([](EvictFixture* fx, bool* flag) -> sim::Task<void> {
    auto lock = co_await fx->vol_->ShardForKey(InodeKey(Dir(1), "f"))
                    .inode_locks.AcquireShared(InodeKey(Dir(1), "f"));
    co_await core::EvictSwitchCacheEntry(fx->ctx_, fx->vol_, EvictFixture::kFp);
    *flag = true;
  }(&fx, &done));
  fx.sim_.Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].rule, "evict-requires-lock");
}

}  // namespace
}  // namespace switchfs
