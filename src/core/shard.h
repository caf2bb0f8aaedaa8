// Per-server shards keyed by fingerprint group (multi-core owners). One
// ServerVolatile used to be a single bundle of shared maps, so the simulated
// k-core CpuPool bought nothing on the hot apply path: every handler
// serialized on the same lock tables and the same owner pusher. This header
// splits the per-incarnation state into kMaxShards-bounded ServerShard
// slices, each owning
//   * its slice of the KV namespace (ShardedKv routes keys),
//   * its inode/change-log/agg-gate/append lock tables,
//   * its change logs and per-owner pushers,
//   * its directory-stream sessions (ids embed the shard index), and
//   * two run-queue lanes drained by the CpuPool cores: the serial `apply`
//     lane (push-batch section applies — one in flight per shard, so shard
//     state is single-writer) and the `handoff` lane (cross-shard work
//     another shard routed here: rename legs, hard-link splits).
//
// Routing: a fingerprint group fp lives on shard fp % num_shards. Inode keys
// "i" + pid + name route by their (pid, name) fingerprint — the same hash
// that picked the owner server — so a directory's inode row, its entry-list
// group locks, and its change-log aggregation all land on one shard.
// Id-keyed auxiliary rows ("e"/"d"/"a"/"c" + id) route by the id's hash.
// Short prefixes (recovery's "d" sweep, migration's "i" sweep) gather across
// shards in key order.
//
// Discipline: modules resolve a shard at op entry through the
// ServerVolatile router helpers (SFS_SHARD_ROUTER) and never index the
// shard vector directly (SFS_SHARD_PRIVATE; sfs-lint rule
// cross-shard-direct). The two sanctioned cross-shard flows — rename legs
// and hard-link splits — arrive as enqueued handoff-lane tasks, and the
// lock-level counterpart (a chain mixing same-class locks from two shards)
// is enforced at runtime by the DisciplineChecker's cross-shard-lock rule.
#ifndef SRC_CORE_SHARD_H_
#define SRC_CORE_SHARD_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/core/change_log.h"
#include "src/core/dir_session.h"
#include "src/core/keys.h"
#include "src/core/lock_table.h"
#include "src/core/messages.h"
#include "src/core/schema.h"
#include "src/core/types.h"
#include "src/kv/kvstore.h"
#include "src/pswitch/fingerprint.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::core {

// Decodes the 32-byte inode id embedded at offset 1 of a routable KV key
// ("e"/"d"/"a"/"c" + id..., or the pid half of "i" + pid + name).
inline InodeId IdFromKeyBytes(std::string_view key) {
  InodeId id;
  for (int i = 0; i < 4; ++i) {
    std::memcpy(&id.w[i], key.data() + 1 + i * 8, sizeof(uint64_t));
  }
  return id;
}

// Fingerprint of an inode key "i" + pid(32B) + name: the same (pid, name)
// hash that picked the key's owner server picks its shard.
inline psw::Fingerprint FingerprintFromInodeKey(std::string_view key) {
  return FingerprintOf(IdFromKeyBytes(key), key.substr(33));
}

inline size_t ShardIndexForFp(psw::Fingerprint fp, size_t num_shards) {
  return num_shards <= 1 ? 0 : static_cast<size_t>(fp % num_shards);
}

inline size_t ShardIndexForId(const InodeId& id, size_t num_shards) {
  return num_shards <= 1 ? 0 : static_cast<size_t>(id.Hash64() % num_shards);
}

// A key (or scan prefix) that pins down one shard: the schema prefixes whose
// first 33 bytes carry a full inode id. Anything shorter ("i" alone, the "d"
// recovery sweep) is a gather across every shard.
inline bool KeyIsRoutable(std::string_view key) {
  if (key.size() < 33) {
    return false;
  }
  const char p = key[0];
  return p == 'i' || p == 'e' || p == 'd' || p == 'a' || p == 'c';
}

inline size_t ShardIndexForKey(std::string_view key, size_t num_shards) {
  if (num_shards <= 1 || !KeyIsRoutable(key)) {
    return 0;
  }
  if (key[0] == 'i') {
    return ShardIndexForFp(FingerprintFromInodeKey(key), num_shards);
  }
  return ShardIndexForId(IdFromKeyBytes(key), num_shards);
}

// Share classes of ServerShard::changelog_locks. Appenders (upsert
// create/unlink, bulk insert, link, the push drain's snapshot and trim)
// only need the group to stay out of a collect's snapshot window, not out of
// each other: the per-log append mutex orders their seqs. Collect sessions
// (AggCollect responders, RunAggregation's local snapshot) only read.
inline constexpr sim::ShareClass kClAppenders = 1;
inline constexpr sim::ShareClass kClCollectors = 2;

// Process-unique discipline tag for a shard's lock tables, so the
// cross-shard-lock rule distinguishes shards across servers and across
// incarnations of the same server (tags are never reused).
int NextShardDomainTag();

// Aggregation initiator state of one round, registered in agg_waits under
// every group of the round (one round in flight per group).
struct AggWait {
  std::vector<psw::Fingerprint> fps;  // the round's groups, ascending
  uint64_t seq = 0;
  std::set<uint32_t> pending;  // server indices yet to reply for `seq`
  std::vector<AggEntries::PerDir> collected;
  std::vector<uint32_t> collected_src;       // parallel to `collected`
  std::shared_ptr<sim::OneShot<bool>> slot;  // armed per attempt
};

// Aggregation responder state of one group: registered when a collect
// starts waiting for the group's change-log lock (collector share), open once
// `lock` holds it, closed by AggDone or the watchdog.
struct AggSession {
  uint64_t seq = 0;  // newest collect attempt seen for the group
  uint64_t id = 0;   // tells a reopened session from the one a handler made
  LockTable::Handle lock;
};

// Source-side per-owner pusher (§5.3 batching): one outbound queue per
// (shard, owner server). `ready` holds the (fp, dir) change-logs awaiting a
// push; the drain coroutine coalesces them into MTU-bounded PushReq batches.
struct OwnerPusher {
  std::set<std::pair<psw::Fingerprint, InodeId>> ready;
  bool draining = false;           // single-flight drain per (shard, owner)
  bool idle_timer_armed = false;   // quiet-log flush timer
  bool retry_timer_armed = false;  // failure re-arm (owner unreachable)
  uint64_t activity = 0;  // bumped per enqueue; the idle timer watches it
  int backoff_shift = 0;  // consecutive failed drains (caps the retry delay)
  // Adaptive pacing (PushResp::retry_after): MTU-triggered drains are
  // deferred to the idle timer until this deadline so a busy owner's apply
  // queue can breathe (§5.3 variant).
  int64_t pace_until = 0;
};

// One fingerprint-group shard of a server incarnation. Like ServerVolatile
// it is mutated by interleaved coroutine handlers: references, pointers, and
// iterators into its containers must not live across a co_await (sfs-lint
// rule borrow-across-suspend) — always re-route through
// ServerVolatile::ShardFor/ShardAt after a suspension.
struct SFS_SUSPENSION_SHARED ServerShard {
  ServerShard(sim::Simulator* sim, int index, int64_t epoch)
      : index(index),
        discipline_tag(NextShardDomainTag()),
        inode_locks(sim, sim::LockClass::kInode, discipline_tag),
        changelog_locks(sim, sim::LockClass::kChangelogGroup, discipline_tag),
        agg_gates(sim, sim::LockClass::kAggGate, discipline_tag),
        changelog_append_locks(sim, sim::LockClass::kAppend, discipline_tag),
        dir_sessions(epoch, index) {}
  ServerShard(const ServerShard&) = delete;
  ServerShard& operator=(const ServerShard&) = delete;

  const int index;
  const int discipline_tag;

  // This shard's slice of the KV namespace (accessed through ShardedKv).
  kv::KvStore kv;

  LockTable inode_locks;      // key: inode key (fp-routed to this shard)
  // key: FpKey(fp) — one per fingerprint group. Appenders share it in
  // kClAppenders and collect sessions in kClCollectors; the two classes
  // exclude each other, and rmdir's pair and the moved_fp rebinds take it
  // exclusively (docs/architecture.md, "Change-log lock compatibility").
  LockTable changelog_locks;
  LockTable agg_gates;        // key: FpKey(fp) — owner-side read/agg gate
  // Per-change-log append mutex (key: ClAppendKey(fp, dir)), innermost in
  // the lock order: held only across {seq capture -> WAL append -> Restore}
  // (or a rebind's renumbering DrainInto) with no other lock acquired
  // inside. Every appender takes it — including the rename/link commit legs
  // that cannot take the fp-group lock — so a captured seq can no longer go
  // stale against a concurrent append or rebind renumber of the same log.
  SFS_LOCK_INNERMOST LockTable changelog_append_locks;

  // Directory-stream sessions minted by this shard (ids carry `index` in
  // their low bits). The LRU cap and eviction counter are per-shard, so one
  // hot directory's scanners cannot evict every other shard's cursors.
  DirSessionTable dir_sessions;
  uint64_t dir_sessions_evicted = 0;

  std::unordered_map<psw::Fingerprint, std::map<InodeId, ChangeLog>>
      changelogs;
  std::unordered_map<psw::Fingerprint, std::shared_ptr<AggWait>> agg_waits;
  std::unordered_map<psw::Fingerprint, AggSession> agg_sessions;
  uint64_t agg_session_ids = 0;
  // Owner-side: completion time of the last aggregation per fingerprint.
  std::unordered_map<psw::Fingerprint, int64_t> last_agg_complete;
  // Owner-side quiet sweep (§5.3): last push arrival per group not yet
  // aggregated since. The sweep erases the groups it aggregates, and it is
  // armed while the map is non-empty.
  std::map<psw::Fingerprint, int64_t> last_push;
  bool quiet_sweep_armed = false;
  // Owner-server tracker mode: local scattered set.
  std::unordered_set<psw::Fingerprint> owner_scattered;
  std::map<uint32_t, OwnerPusher> pushers;  // key: owner server index

  // Run-queue lanes (drained via EnqueueShardTask / KickShardDrains).
  //
  // apply lane: push-batch section applies, executed strictly one at a time
  // per shard by a single drainer coroutine — the shard's single-writer
  // guarantee for its kv slice and hwm lanes under a storm of concurrent
  // PushReqs. The drainer charges the CpuPool, so k shards on k cores give
  // the intra-server scaling of Fig 2(d).
  std::deque<std::function<sim::Task<void>()>> apply_queue;
  bool apply_draining = false;
  // handoff lane: cross-shard work routed here by another shard's handler
  // (rename legs, hard-link splits). Dispatch is FIFO but not serialized —
  // each task is spawned as its own chain; the shard's lock tables take it
  // from there.
  std::deque<std::function<sim::Task<void>()>> handoff_queue;

  // The per-directory change-log within `fp`'s group, created on demand.
  // Only meaningful on the shard owning `fp` (ServerVolatile::GetChangeLog
  // routes).
  ChangeLog& GetChangeLog(psw::Fingerprint fp, const InodeId& dir) {
    auto& per_dir = changelogs[fp];
    auto it = per_dir.find(dir);
    if (it == per_dir.end()) {
      it = per_dir.emplace(dir, ChangeLog(dir, fp)).first;
    }
    return it->second;
  }
};

// KvStore-shaped router over the shard vector: point reads/writes route by
// key, scans with a routable prefix delegate to one shard, short-prefix
// scans gather across shards in global key order. This is the sanctioned
// way for protocol code to touch another shard's rows (e.g. an apply
// writing the id-routed "e" entry rows of a directory whose inode row is
// fp-routed elsewhere): storage routing stays inside the router; the lock
// and queue state of a shard is never reached this way.
class SFS_SUSPENSION_SHARED ShardedKv {
 public:
  explicit ShardedKv(std::vector<std::unique_ptr<ServerShard>>* shards)
      : shards_(shards) {}

  std::optional<std::string> Get(const std::string& key) const;
  bool Contains(const std::string& key) const;
  void Put(const std::string& key, std::string value);
  // Returns true if the key existed.
  bool Delete(const std::string& key);

  // Visits all (key, value) pairs whose key starts with `prefix`, in global
  // key order. Visitor returns false to stop early.
  void ScanPrefix(std::string_view prefix,
                  const std::function<bool(const std::string&,
                                           const std::string&)>& visit) const;
  size_t CountPrefix(std::string_view prefix) const;

  // Cursor variant of ScanPrefix: visits pairs with key strictly greater
  // than `after` (still restricted to `prefix`), in key order.
  void ScanFrom(std::string_view prefix, const std::string& after,
                const std::function<bool(const std::string&,
                                         const std::string&)>& visit) const;

  size_t size() const;
  void Clear();

  uint64_t gets() const;
  uint64_t puts() const;
  uint64_t deletes() const;

 private:
  const kv::KvStore& Route(std::string_view key) const;
  kv::KvStore& Route(std::string_view key);

  std::vector<std::unique_ptr<ServerShard>>* shards_;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_SHARD_H_
