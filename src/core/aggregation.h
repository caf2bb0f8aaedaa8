// Directory aggregation (paper §5.2.2 steps 5-10, §5.3, §5.4.1): the
// owner-side collect/apply round that returns scattered directories to
// normal state, and the responder-side session handling on every other
// server.
//
// Owner side: one round covers a set of fingerprint groups of one shard,
// ascending, at most kMaxRoundGroups. The owner's quiet sweep (PushEngine)
// passes every group of a shard whose pushes went quiet, recovery passes
// its owned groups shard by shard, and on-demand reads, rmdir and rename's
// AggregateReq pass a set of one. RunAggregation removes the whole set from
// the dirty set with one remove, multicasts one collect carrying the set,
// gathers one reply per server holding its change-log entries for those
// groups, applies them (hwm-deduplicated, FIFO per source and group), and
// multicasts one AggDone so the senders mark their WAL records applied.
// Retries use a fresh remove sequence number until every server replied
// (§5.4.1).
//
// Responder side: HandleAggCollect takes the groups' shared change-log
// locks in fingerprint order and keeps one session per group holding its
// lock, then snapshots every group into one reply. AggDone releases the
// sessions or, if the initiator dies, the round's watchdog does.
#ifndef SRC_CORE_AGGREGATION_H_
#define SRC_CORE_AGGREGATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/server_context.h"
#include "src/net/packet.h"
#include "src/sim/task.h"

namespace switchfs::core {

class PushEngine;  // push_engine.h (depends on this header)

class Aggregation {
 public:
  explicit Aggregation(ServerContext& ctx) : ctx_(ctx) {}
  Aggregation(const Aggregation&) = delete;
  Aggregation& operator=(const Aggregation&) = delete;

  // Wires the moved_fp rebind path (§5.2 rename race): entries collected for
  // a directory that was renamed away are routed to PushEngine::
  // RebindMovedLog instead of being acked at max seq. Set after construction
  // (PushEngine itself depends on Aggregation); without a rebinder, moved
  // directories degrade to the removed-directory trim.
  void SetRebinder(PushEngine* rebinder) { rebinder_ = rebinder; }

  struct Outcome {
    bool ok = false;
    net::MsgPtr deferred_done;  // AggDone to multicast (when defer_done)
  };

  // Groups one round covers at most: bounds the remove's group list (a
  // header stack at the switch) and the collect. Longer sets run as several
  // rounds.
  static constexpr size_t kMaxRoundGroups = 16;

  // ---- owner side ----
  // One round over `fps` (ascending, one shard, 1..kMaxRoundGroups groups).
  // Caller must hold the exclusive agg gate of every group in `fps`.
  // `held_cl_fp`: a fingerprint whose change-log lock the caller already
  // holds exclusively (rmdir holds the parent's); pass 0 if none.
  // `held_inode_key`: an inode key the caller already holds a write lock on
  // ("" if none). `invalidate`: rmdir's lazy client-cache invalidation rides
  // on the collect (§5.2.3).
  sim::Task<Outcome> RunAggregation(VolPtr v,
                                    std::vector<psw::Fingerprint> fps,
                                    std::optional<InodeId> invalidate,
                                    psw::Fingerprint held_cl_fp,
                                    const std::string& held_inode_key,
                                    bool defer_done);
  void SendAggDone(net::MsgPtr done_msg);
  // Applies entries from `src` to directory `dir` (hwm-deduped, FIFO). With
  // compaction on, N entries cost one consolidated attribute write (§5.3).
  // `lane_fp` is the fingerprint the entries were logged under at the
  // source: it selects the (dir, src, fp) dedup lane — see
  // ServerVolatile::hwm. `batch_token` (non-zero on the push path) is
  // stamped into every kWalEntryApply record so recovery rebuilds the
  // section's idempotency state.
  sim::Task<void> ApplyEntries(VolPtr v, InodeId dir, uint32_t src,
                               psw::Fingerprint lane_fp,
                               std::vector<ChangeLogEntry> entries,
                               const std::string& held_inode_key,
                               uint64_t batch_token = 0);
  // Aggregates `fps` (ascending, one shard) kMaxRoundGroups at a time: each
  // round takes its groups' exclusive gates in order, then runs (quiet
  // sweep, rename's AggregateReq, recovery).
  sim::Task<void> GateAndAggregate(VolPtr v, std::vector<psw::Fingerprint> fps);

  // ---- responder side ----
  sim::Task<void> HandleAggCollect(net::Packet p, VolPtr v);
  void HandleAggDone(const AggDone& done, VolPtr v);
  void HandleAggEntries(net::Packet p, VolPtr v);  // at initiator

 private:
  // Reaps the sessions one collect opened, as (group, seq) pairs, once
  // their initiator stops refreshing them.
  sim::Task<void> ResponderSessionWatchdog(
      VolPtr v, std::vector<std::pair<psw::Fingerprint, uint64_t>> sessions);

  ServerContext& ctx_;
  PushEngine* rebinder_ = nullptr;  // see SetRebinder
};

}  // namespace switchfs::core

#endif  // SRC_CORE_AGGREGATION_H_
