// Unit tests for core building blocks that the protocol suites exercise only
// indirectly: the reference-counted lock table, the client cache (and the
// warm snapshot its clients share), the timestamped invalidation list,
// change-log compaction state, schema keys, and consistent-hash placement.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/change_log.h"
#include "src/core/client_cache.h"
#include "src/core/cluster.h"
#include "src/core/invalidation.h"
#include "src/core/lock_table.h"
#include "src/core/placement.h"
#include "src/core/schema.h"
#include "src/sim/simulator.h"
#include "tests/switchfs_test_util.h"

namespace switchfs::core {
namespace {

TEST(LockTable, SlotsAreReclaimedWhenIdle) {
  sim::Simulator sim;
  LockTable table(&sim);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    sim::Spawn([](sim::Simulator* s, LockTable* t, int* d) -> sim::Task<void> {
      auto h = co_await t->AcquireExclusive("key");
      co_await sim::Delay(s, 5);
      (*d)++;
    }(&sim, &table, &done));
  }
  EXPECT_GE(table.slot_count(), 1u);
  sim.Run();
  EXPECT_EQ(done, 8);
  EXPECT_EQ(table.slot_count(), 0u);  // last release reclaims the slot
}

// A queued acquire is resumed by the release's handoff event already holding
// the lock (the Handle it gets is live), and the slot outlives the holder
// only as long as a holder or waiter still references it.
TEST(LockTable, QueuedAcquireResumesHoldingTheGuard) {
  sim::Simulator sim;
  LockTable table(&sim);
  sim::SimTime second_got_it = -1;
  bool second_held = false;
  size_t slots_while_second_holds = 0;
  sim::Spawn([](sim::Simulator* s, LockTable* t) -> sim::Task<void> {
    auto h = co_await t->AcquireExclusive("k");
    co_await sim::Delay(s, 10);
  }(&sim, &table));
  sim::Spawn([](sim::Simulator* s, LockTable* t, sim::SimTime* at, bool* held,
                size_t* slots) -> sim::Task<void> {
    auto h = co_await t->AcquireShared("k");  // queues behind the writer
    *at = s->Now();
    *held = h.held();
    *slots = t->slot_count();
    co_await sim::Delay(s, 5);
  }(&sim, &table, &second_got_it, &second_held, &slots_while_second_holds));
  EXPECT_EQ(table.slot_count(), 1u);  // one slot, shared by holder and waiter
  sim.RunUntil(9);
  EXPECT_EQ(second_got_it, -1);  // still queued
  sim.Run();
  EXPECT_EQ(second_got_it, 10);
  EXPECT_TRUE(second_held);
  EXPECT_EQ(slots_while_second_holds, 1u);
  EXPECT_EQ(table.slot_count(), 0u);  // reclaimed after the last release
  EXPECT_EQ(sim.Now(), 15);
}

TEST(LockTable, MixedSharedExclusiveFifo) {
  sim::Simulator sim;
  LockTable table(&sim);
  std::string order;
  auto reader = [](sim::Simulator* s, LockTable* t, std::string* o,
                   char tag) -> sim::Task<void> {
    auto h = co_await t->AcquireShared("k");
    o->push_back(tag);
    co_await sim::Delay(s, 10);
  };
  auto writer = [](sim::Simulator* s, LockTable* t, std::string* o,
                   char tag) -> sim::Task<void> {
    auto h = co_await t->AcquireExclusive("k");
    o->push_back(tag);
    co_await sim::Delay(s, 10);
  };
  sim.ScheduleAt(0, [&] { sim::Spawn(reader(&sim, &table, &order, 'a')); });
  sim.ScheduleAt(1, [&] { sim::Spawn(writer(&sim, &table, &order, 'W')); });
  sim.ScheduleAt(2, [&] { sim::Spawn(reader(&sim, &table, &order, 'b')); });
  sim.Run();
  EXPECT_EQ(order, "aWb");
  EXPECT_EQ(table.slot_count(), 0u);
}

TEST(LockTable, IndependentKeysDoNotInterfere) {
  sim::Simulator sim;
  LockTable table(&sim);
  sim::SimTime done_a = 0;
  sim::SimTime done_b = 0;
  sim::Spawn([](sim::Simulator* s, LockTable* t, sim::SimTime* out)
                 -> sim::Task<void> {
    auto h = co_await t->AcquireExclusive("a");
    co_await sim::Delay(s, 100);
    *out = s->Now();
  }(&sim, &table, &done_a));
  sim::Spawn([](sim::Simulator* s, LockTable* t, sim::SimTime* out)
                 -> sim::Task<void> {
    auto h = co_await t->AcquireExclusive("b");
    co_await sim::Delay(s, 100);
    *out = s->Now();
  }(&sim, &table, &done_b));
  sim.Run();
  EXPECT_EQ(done_a, 100);
  EXPECT_EQ(done_b, 100);  // parallel, not serialized
}

TEST(ClientCache, InvalidateIdDropsDependentEntries) {
  ClientCache cache;
  InodeId a;
  a.w[0] = 1;
  InodeId b;
  b.w[0] = 2;
  InodeId c;
  c.w[0] = 3;
  CachedDir da{a, 0, 0755, {{RootId(), 0}, {a, 10}}};
  CachedDir db{b, 0, 0755, {{RootId(), 0}, {a, 10}, {b, 11}}};
  CachedDir dc{c, 0, 0755, {{RootId(), 0}, {c, 12}}};
  cache.Put("/a", da);
  cache.Put("/a/b", db);
  cache.Put("/c", dc);
  EXPECT_EQ(cache.InvalidateId(a), 2u);  // /a and /a/b
  EXPECT_EQ(cache.Get("/a"), nullptr);
  EXPECT_EQ(cache.Get("/a/b"), nullptr);
  EXPECT_NE(cache.Get("/c"), nullptr);
}

// The cache as one private map: the behaviour a snapshot-backed ClientCache
// must reproduce.
class ReferenceCache {
 public:
  const CachedDir* Get(const std::string& path) const {
    auto it = map_.find(path);
    return it == map_.end() ? nullptr : &it->second;
  }
  void Put(const std::string& path, CachedDir entry) {
    map_[path] = std::move(entry);
  }
  void ErasePath(const std::string& path) { map_.erase(path); }
  size_t InvalidateId(const InodeId& id) {
    size_t dropped = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      bool hit = false;
      for (const AncestorRef& a : it->second.ancestors) {
        hit = hit || a.id == id;
      }
      if (hit) {
        it = map_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }
  void Clear() { map_.clear(); }
  size_t size() const { return map_.size(); }

 private:
  std::unordered_map<std::string, CachedDir> map_;
};

bool SameEntry(const CachedDir* a, const CachedDir* b) {
  if (a == nullptr || b == nullptr) {
    return a == b;
  }
  if (!(a->id == b->id) || a->fp != b->fp || a->mode != b->mode ||
      a->ancestors.size() != b->ancestors.size()) {
    return false;
  }
  for (size_t i = 0; i < a->ancestors.size(); ++i) {
    if (!(a->ancestors[i].id == b->ancestors[i].id) ||
        a->ancestors[i].cached_at != b->ancestors[i].cached_at) {
      return false;
    }
  }
  return true;
}

// A random tree of `n` directories under the root: every entry's chain is
// its parent's chain plus itself, so ancestors are shared along branches.
std::vector<std::pair<std::string, CachedDir>> RandomTree(Rng& rng, int n,
                                                          uint64_t tag) {
  std::vector<std::pair<std::string, CachedDir>> dirs;
  CachedDir root;
  root.id = RootId();
  root.ancestors = {{RootId(), 0}};
  dirs.emplace_back("/", root);
  for (int i = 1; i < n; ++i) {
    const auto& [ppath, parent] = dirs[rng.NextBelow(dirs.size())];
    CachedDir d;
    d.id.w[0] = tag * 1000 + static_cast<uint64_t>(i);
    d.fp = rng.Next();
    d.mode = rng.NextBool(0.5) ? 0755 : 0700;
    d.ancestors = parent.ancestors;
    d.ancestors.push_back({d.id, rng.NextInRange(0, 50)});
    dirs.emplace_back((ppath == "/" ? "" : ppath) + "/d" + std::to_string(i),
                      std::move(d));
  }
  return dirs;
}

TEST(ClientCache, SnapshotBackedCacheMatchesPrivateMap) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // Two warm-up generations; the second shares a prefix of paths with the
    // first and moves some of them under new ids.
    auto gen1 = RandomTree(rng, 60, 1);
    auto gen2 = RandomTree(rng, 80, 2);
    std::vector<std::string> paths;
    std::vector<InodeId> ids;
    for (const auto* gen : {&gen1, &gen2}) {
      for (const auto& [path, dir] : *gen) {
        paths.push_back(path);
        ids.push_back(dir.id);
      }
    }
    paths.push_back("/never");
    ids.push_back(InodeId{});

    ClientCache cache;
    ReferenceCache ref;
    CachedDir root = gen1[0].second;
    cache.Put("/", root);
    ref.Put("/", root);
    auto attach = [&](const std::vector<std::pair<std::string, CachedDir>>& g) {
      cache.AttachSnapshot(std::make_shared<const WarmSnapshot>(g));
      for (const auto& [path, dir] : g) {
        ref.Put(path, dir);
      }
    };
    attach(gen1);
    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = rng.NextBelow(100);
      const std::string& path = paths[rng.NextBelow(paths.size())];
      if (op < 40) {
        ASSERT_TRUE(SameEntry(cache.Get(path), ref.Get(path))) << path;
      } else if (op < 60) {
        // A learned entry: chain of some known entry, plus a fresh id.
        const auto& gen = rng.NextBool(0.5) ? gen1 : gen2;
        CachedDir d = gen[rng.NextBelow(gen.size())].second;
        d.id.w[0] = 9000000 + static_cast<uint64_t>(step);
        d.ancestors.push_back({d.id, step});
        cache.Put(path, d);
        ref.Put(path, d);
      } else if (op < 75) {
        cache.ErasePath(path);
        ref.ErasePath(path);
      } else if (op < 95) {
        const InodeId& id = ids[rng.NextBelow(ids.size())];
        ASSERT_EQ(cache.InvalidateId(id), ref.InvalidateId(id));
      } else if (op < 98) {
        cache.Clear();
        ref.Clear();
      } else {
        attach(rng.NextBool(0.5) ? gen1 : gen2);
      }
      ASSERT_EQ(cache.size(), ref.size()) << "step " << step;
    }
    for (const std::string& path : paths) {
      EXPECT_TRUE(SameEntry(cache.Get(path), ref.Get(path))) << path;
    }
  }
}

TEST(ClientCache, WarmClientsShareOneSnapshot) {
  FsHarness fs;
  for (int d = 0; d < 8; ++d) {
    fs.cluster.PreloadMkdir("/d" + std::to_string(d));
  }
  fs.cluster.PreloadMkdir("/d0/sub");
  std::vector<std::unique_ptr<SwitchFsClient>> clients;
  for (int i = 0; i < 64; ++i) {
    clients.push_back(fs.cluster.MakeClient());
    fs.cluster.WarmClient(*clients.back());
  }
  const auto& shared = clients[0]->cache().snapshot();
  ASSERT_NE(shared, nullptr);
  EXPECT_GE(shared.use_count(), 64);
  for (const auto& c : clients) {
    EXPECT_EQ(c->cache().snapshot().get(), shared.get());
    EXPECT_EQ(c->cache().overlay_size(), 0u);
    EXPECT_EQ(c->cache().size(), 10u);  // "/", 8 dirs and /d0/sub
  }

  // An invalidation in one client leaves the others' view unchanged.
  const InodeId d0 = fs.cluster.preloaded("/d0")->id;
  EXPECT_EQ(clients[0]->cache().InvalidateId(d0), 2u);  // /d0 and /d0/sub
  EXPECT_EQ(clients[0]->cache().Get("/d0/sub"), nullptr);
  ASSERT_NE(clients[1]->cache().Get("/d0/sub"), nullptr);
  EXPECT_EQ(clients[1]->cache().size(), 10u);

  // So does a rename through one client: the others keep their (now stale)
  // entry until the servers tell them otherwise.
  fs.cluster.WarmClient(*fs.client);
  ASSERT_TRUE(fs.Rename("/d1", "/e1").ok());
  EXPECT_EQ(fs.client->cache().Get("/d1"), nullptr);
  const CachedDir* stale = clients[1]->cache().Get("/d1");
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->id, fs.cluster.preloaded("/d1")->id);

  // A client keeps the snapshot it was warmed with; later preloads reach
  // only clients warmed after them.
  fs.cluster.PreloadMkdir("/late");
  auto late = fs.cluster.MakeClient();
  fs.cluster.WarmClient(*late);
  EXPECT_EQ(clients[1]->cache().Get("/late"), nullptr);
  EXPECT_EQ(clients[1]->cache().snapshot().get(), shared.get());
  ASSERT_NE(late->cache().Get("/late"), nullptr);
  EXPECT_NE(late->cache().snapshot().get(), shared.get());
  EXPECT_EQ(late->cache().overlay_size(), 0u);
}

TEST(Invalidation, TimestampOrderingGovernsStaleness) {
  InvalidationList list;
  InodeId id;
  id.w[0] = 7;
  list.Add(id, /*now=*/100);
  // Cached before the invalidation: stale.
  std::vector<AncestorRef> old_chain = {{id, 50}};
  EXPECT_EQ(list.Check(old_chain).size(), 1u);
  // Cached at the same instant: conservatively stale.
  std::vector<AncestorRef> same_chain = {{id, 100}};
  EXPECT_EQ(list.Check(same_chain).size(), 1u);
  // Re-fetched after: fresh (a failed rmdir cannot poison the cache forever).
  std::vector<AncestorRef> new_chain = {{id, 101}};
  EXPECT_TRUE(list.Check(new_chain).empty());
}

TEST(Invalidation, SnapshotMergeKeepsNewestTimestamps) {
  InvalidationList a;
  InvalidationList b;
  InodeId id;
  id.w[0] = 9;
  a.Add(id, 100);
  b.Add(id, 50);
  b.Merge(a.Snapshot());
  std::vector<AncestorRef> chain = {{id, 75}};
  EXPECT_EQ(b.Check(chain).size(), 1u);  // newest (100) wins
}

TEST(Invalidation, PruneDropsOldEntries) {
  InvalidationList list;
  InodeId id1;
  id1.w[0] = 1;
  InodeId id2;
  id2.w[0] = 2;
  list.Add(id1, 10);
  list.Add(id2, 200);
  list.PruneBefore(100);
  EXPECT_FALSE(list.Contains(id1));
  EXPECT_TRUE(list.Contains(id2));
}

TEST(ChangeLog, AppendAssignsFifoSeqAndTracksCompactedState) {
  ChangeLog log(InodeId{}, 42);
  ChangeLogEntry e1;
  e1.timestamp = 10;
  e1.name = "a";
  e1.size_delta = 1;
  ChangeLogEntry e2;
  e2.timestamp = 30;
  e2.name = "b";
  e2.size_delta = 1;
  ChangeLogEntry e3;
  e3.timestamp = 20;
  e3.name = "a";
  e3.size_delta = -1;
  EXPECT_EQ(log.Append(e1), 1u);
  EXPECT_EQ(log.Append(e2), 2u);
  EXPECT_EQ(log.Append(e3), 3u);
  // Compaction state (Fig 7): max timestamp + net size delta.
  EXPECT_EQ(log.max_timestamp(), 30);
  EXPECT_EQ(log.pending_size_delta(), 1);
  EXPECT_EQ(log.size(), 3u);
}

TEST(ChangeLog, AckUpToDropsPrefixAndReturnsWalLsns) {
  ChangeLog log(InodeId{}, 1);
  for (int i = 0; i < 5; ++i) {
    ChangeLogEntry e;
    e.name = "f" + std::to_string(i);
    e.wal_lsn = 100 + i;
    log.Append(e);
  }
  auto lsns = log.AckUpTo(3);
  EXPECT_EQ(lsns, (std::vector<uint64_t>{100, 101, 102}));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.pending().front().seq, 4u);
  // Re-acking is a no-op.
  EXPECT_TRUE(log.AckUpTo(3).empty());
}

TEST(ChangeLog, RestorePreservesSeqAcrossRecovery) {
  ChangeLog log(InodeId{}, 1);
  ChangeLogEntry e;
  e.seq = 7;
  e.name = "x";
  log.Restore(e);
  EXPECT_EQ(log.last_appended_seq(), 7u);
  ChangeLogEntry next;
  next.name = "y";
  EXPECT_EQ(log.Append(next), 8u);
}

TEST(ChangeLogEntry, EncodeDecodeRoundTrip) {
  ChangeLogEntry e;
  e.seq = 42;
  e.timestamp = 123456789;
  e.op = OpType::kRmdir;
  e.name = "subdir";
  e.entry_type = FileType::kDirectory;
  e.size_delta = -1;
  Encoder enc;
  e.EncodeTo(enc);
  Decoder dec(enc.data());
  ChangeLogEntry d = ChangeLogEntry::DecodeFrom(dec);
  EXPECT_EQ(d.seq, 42u);
  EXPECT_EQ(d.timestamp, 123456789);
  EXPECT_EQ(d.op, OpType::kRmdir);
  EXPECT_EQ(d.name, "subdir");
  EXPECT_EQ(d.entry_type, FileType::kDirectory);
  EXPECT_EQ(d.size_delta, -1);
}

TEST(Schema, KeysRoundTripAndPartitionDeterministically) {
  InodeId pid;
  pid.w[0] = 0xdead;
  const std::string ikey = InodeKey(pid, "file.txt");
  EXPECT_EQ(ikey.size(), 1 + 32 + 8u);
  EXPECT_EQ(ikey[0], 'i');
  const std::string ekey = EntryKey(pid, "file.txt");
  EXPECT_EQ(EntryNameFromKey(ekey), "file.txt");
  EXPECT_EQ(NameHash(pid, "file.txt"), NameHash(pid, "file.txt"));
  EXPECT_NE(NameHash(pid, "file.txt"), NameHash(pid, "file2.txt"));
  EXPECT_NE(FingerprintOf(pid, "a"), FingerprintOf(pid, "b"));
}

TEST(Placement, RingIsBalancedAndStableUnderGrowth) {
  HashRing ring({0, 1, 2, 3, 4, 5, 6, 7});
  switchfs::Rng rng(3);
  std::vector<int> counts(8, 0);
  std::vector<psw::Fingerprint> fps;
  for (int i = 0; i < 80000; ++i) {
    fps.push_back(psw::FingerprintFromHash(rng.Next()));
    counts[ring.Owner(fps.back())]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 5000);
    EXPECT_LT(c, 16000);
  }
  // Adding a server moves only ~1/9 of the keys (consistent hashing, §5.5).
  HashRing bigger = ring;
  bigger.AddServer(8);
  int moved = 0;
  for (psw::Fingerprint fp : fps) {
    if (ring.Owner(fp) != bigger.Owner(fp)) {
      moved++;
    }
  }
  EXPECT_LT(moved, 80000 / 5);
  EXPECT_GT(moved, 80000 / 30);
}

TEST(Attr, EncodeDecodeRoundTripIncludingReferences) {
  Attr a;
  a.id.w[0] = 5;
  a.type = FileType::kReference;
  a.mode = 0640;
  a.size = 3;  // attr-server index for references
  a.nlink = 4;
  Attr b = Attr::Decode(a.Encode());
  EXPECT_EQ(b.id, a.id);
  EXPECT_EQ(b.type, FileType::kReference);
  EXPECT_EQ(b.mode, 0640u);
  EXPECT_EQ(b.size, 3u);
  EXPECT_EQ(b.nlink, 4u);
}

}  // namespace
}  // namespace switchfs::core
