#include "src/core/aggregation.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/push_engine.h"
#include "src/core/schema.h"
#include "src/core/wal_records.h"
#include "src/sim/sync.h"
#include "src/tracker/dirty_tracker.h"

namespace switchfs::core {

namespace {

// Appends every non-empty change-log of group `fp` as one PerDir: the
// snapshot a collect gathers, at the owner and at each responder.
void AppendPendingLogs(ServerVolatile& v, psw::Fingerprint fp,
                       std::vector<AggEntries::PerDir>* out) {
  const auto& groups = v.ShardFor(fp).changelogs;
  auto it = groups.find(fp);
  if (it == groups.end()) {
    return;
  }
  for (const auto& [dir, log] : it->second) {
    if (log.empty()) {
      continue;
    }
    AggEntries::PerDir pd;
    pd.fp = fp;
    pd.dir = dir;
    pd.entries.assign(log.pending().begin(), log.pending().end());
    out->push_back(std::move(pd));
  }
}

}  // namespace

sim::Task<Aggregation::Outcome> Aggregation::RunAggregation(
    VolPtr v, std::vector<psw::Fingerprint> fps,
    std::optional<InodeId> invalidate, psw::Fingerprint held_cl_fp,
    const std::string& held_inode_key, bool defer_done) {
  assert(!fps.empty() && fps.size() <= kMaxRoundGroups);
  assert(std::is_sorted(fps.begin(), fps.end()));
  assert(std::all_of(fps.begin(), fps.end(), [&](psw::Fingerprint fp) {
    return &v->ShardFor(fp) == &v->ShardFor(fps.front());
  }));
  ctx_.stats->aggregations++;
  ctx_.stats->agg_groups += fps.size();
  Outcome outcome;

  auto w = std::make_shared<ServerVolatile::AggWait>();
  w->fps = fps;
  for (uint32_t s = 0; s < ctx_.cluster->ServerCount(); ++s) {
    if (s != ctx_.config->index) {
      w->pending.insert(s);
    }
  }
  for (psw::Fingerprint fp : fps) {
    v->ShardFor(fp).agg_waits[fp] = w;
  }

  if (invalidate.has_value()) {
    v->inval.Add(*invalidate, ctx_.Now());
  }

  // Local snapshot: our own change-logs belong to the collection too. The
  // collector-share locks, taken in fingerprint order, wait for in-flight
  // double-inode ops (appenders) to finish (Fig 20).
  {
    std::vector<LockTable::Handle> local_locks;
    for (psw::Fingerprint fp : fps) {
      if (fp == held_cl_fp) {
        continue;
      }
      LockTable::Handle lock =
          co_await v->ShardFor(fp).changelog_locks.AcquireShared(
              FpKey(fp), kClCollectors);
      if (v->dead) co_return outcome;
      local_locks.push_back(std::move(lock));
    }
    for (psw::Fingerprint fp : fps) {
      AppendPendingLogs(*v, fp, &w->collected);
    }
    w->collected_src.resize(w->collected.size(), ctx_.config->index);
  }

  // Remove the round's fingerprints and multicast the collect request; retry
  // with a fresh sequence number until every server has replied (§5.4.1).
  bool complete = w->pending.empty();
  for (int attempt = 0; attempt <= ctx_.config->agg_max_retries && !complete;
       ++attempt) {
    if (attempt > 0) {
      ctx_.stats->agg_retries++;
    }
    const uint64_t seq = ++ctx_.durable->remove_seq;
    w->seq = seq;
    w->slot = std::make_shared<sim::OneShot<bool>>(ctx_.sim);

    auto collect = std::make_shared<AggCollect>();
    collect->fps = fps;
    collect->initiator_server = ctx_.config->index;
    collect->initiator_node = ctx_.node_id();
    collect->agg_seq = seq;
    if (invalidate.has_value()) {
      collect->invalidate = true;
      collect->invalidate_id = *invalidate;
    }

    net::Packet rm;
    rm.dst = net::kServerMulticast;
    rm.body = collect;
    co_await ctx_.dirty_tracker->RemoveAndMulticast(ctx_, v, fps, seq,
                                                    std::move(rm));
    if (v->dead) co_return outcome;

    auto slot = w->slot;
    ctx_.sim->ScheduleAfter(ctx_.config->agg_reply_timeout,
                            [slot] { slot->Set(false); });
    complete = co_await slot->Wait();
    if (v->dead) co_return outcome;
    if (w->pending.empty()) {
      complete = true;
    }
  }

  // Apply phase: per-(dir, source, group) batches, hwm-deduplicated. Entries
  // collected for a directory that was renamed away (live moved tombstone)
  // are neither applied nor acked: acking at max seq would trim committed
  // entries at their sources. They become AggDone moved rows instead, and
  // each source re-keys its log toward the tombstone's target — the
  // aggregation-path analog of the kMoved push verdict.
  using RowKey = std::tuple<uint32_t, psw::Fingerprint, InodeId>;
  std::map<RowKey, uint64_t> acked;
  std::map<RowKey, AggDone::MovedRow> moved;
  for (size_t i = 0; i < w->collected.size(); ++i) {
    const uint32_t src = w->collected_src[i];
    // Copies, not references: a straggling AggEntries reply (responder
    // retry) can push_back into w->collected while ApplyEntries suspends,
    // reallocating the vector under a held reference.
    const psw::Fingerprint fp = w->collected[i].fp;
    const InodeId dir = w->collected[i].dir;
    if (w->collected[i].entries.empty()) {
      continue;
    }
    const uint64_t max_seq = w->collected[i].entries.back().seq;
    co_await ApplyEntries(v, dir, src, fp,
                          std::move(w->collected[i].entries), held_inode_key);
    if (v->dead) co_return outcome;
    // Classify AFTER the apply: ApplyEntries drops entries silently when
    // the directory is unknown here, and a rename can commit while the
    // apply waits on the inode lock — a pre-apply check would ack (and so
    // trim) entries the rename raced.
    const ServerVolatile::MovedDir* tomb =
        v->MovedAway(dir, ctx_.Now(), ctx_.config->moved_tombstone_ttl);
    if (tomb != nullptr) {
      moved[{src, fp, dir}] = AggDone::MovedRow{src,
                                                fp,
                                                dir,
                                                tomb->AppliedFor(src, fp),
                                                tomb->new_fp,
                                                tomb->new_owner,
                                                tomb->epoch};
      continue;
    }
    auto& high = acked[{src, fp, dir}];
    high = std::max(high, max_seq);
  }

  // Ack our own change-logs synchronously.
  for (psw::Fingerprint fp : fps) {
    auto own = v->ShardFor(fp).changelogs.find(fp);
    if (own == v->ShardFor(fp).changelogs.end()) {
      continue;
    }
    for (auto& [dir, log] : own->second) {
      auto it = acked.find({ctx_.config->index, fp, dir});
      if (it == acked.end()) {
        continue;
      }
      for (uint64_t lsn : log.AckUpTo(it->second)) {
        ctx_.durable->wal.MarkApplied(lsn);
      }
    }
  }

  auto done = std::make_shared<AggDone>();
  done->fps = fps;
  done->agg_seq = w->seq;
  for (const auto& [key, seq] : acked) {
    const auto& [src, fp, dir] = key;
    if (src == ctx_.config->index) {
      continue;
    }
    done->acked.push_back(AggDone::AckedRow{src, fp, dir, seq});
  }
  // Moved rows: remote sources re-key on receipt of the AggDone; our own
  // logs for the moved directory re-key in a detached task — the caller may
  // hold this group's change-log lock (rmdir's held_cl_fp), so an inline
  // rebind could self-deadlock on its own lock table.
  for (const auto& [key, row] : moved) {
    if (row.src_server != ctx_.config->index) {
      done->moved.push_back(row);
      continue;
    }
    if (rebinder_ != nullptr) {
      sim::Spawn(rebinder_->RebindMovedLogDetached(
          v, row.dir, row.fp, row.new_fp, row.applied_seq,
          /*from_aggregation=*/true));
    }
  }
  for (psw::Fingerprint fp : fps) {
    v->ShardFor(fp).last_agg_complete[fp] = ctx_.Now();
    v->ShardFor(fp).agg_waits.erase(fp);
  }

  outcome.ok = true;
  if (defer_done) {
    outcome.deferred_done = done;
  } else {
    SendAggDone(done);
  }
  co_return outcome;
}

void Aggregation::SendAggDone(net::MsgPtr done_msg) {
  if (done_msg == nullptr) {
    return;
  }
  net::Packet p;
  p.dst = net::kServerMulticast;
  p.ds.origin = ctx_.node_id();
  p.body = std::move(done_msg);
  ctx_.rpc->Send(std::move(p));
}

sim::Task<void> Aggregation::GateAndAggregate(
    VolPtr v, std::vector<psw::Fingerprint> fps) {
  for (size_t first = 0; first < fps.size(); first += kMaxRoundGroups) {
    const size_t last = std::min(fps.size(), first + kMaxRoundGroups);
    std::vector<psw::Fingerprint> round(
        fps.begin() + static_cast<ptrdiff_t>(first),
        fps.begin() + static_cast<ptrdiff_t>(last));
    std::vector<LockTable::Handle> gates;
    for (psw::Fingerprint fp : round) {
      LockTable::Handle gate =
          co_await v->ShardFor(fp).agg_gates.AcquireExclusive(FpKey(fp));
      if (v->dead) co_return;
      gates.push_back(std::move(gate));
    }
    co_await RunAggregation(v, std::move(round), std::nullopt, 0, "", false);
    if (v->dead) co_return;
  }
}

sim::Task<void> Aggregation::ApplyEntries(VolPtr v, InodeId dir, uint32_t src,
                                          psw::Fingerprint lane_fp,
                                          std::vector<ChangeLogEntry> entries,
                                          const std::string& held_inode_key,
                                          uint64_t batch_token) {
  if (entries.empty()) {
    co_return;
  }
  std::string ikey;
  psw::Fingerprint fp = 0;
  if (!v->LookupDirIndex(dir, &ikey, &fp)) {
    // Directory unknown here: removed (entries are obsolete) or renamed
    // away. Callers that must not lose entries check the moved tombstone
    // BEFORE applying (PushEngine::ApplySection, RunAggregation's apply
    // phase, SyncParentUpdate) and route a kMoved/moved-row rebind verdict
    // instead; this silent drop is only reached for genuinely removed
    // directories.
    co_return;
  }
  LockTable::Handle lock;
  if (ikey != held_inode_key) {
    lock = co_await v->ShardFor(fp).inode_locks.AcquireExclusive(ikey);
    if (v->dead) co_return;
  }

  // The hwm mark is tracked in a local and written through BumpHwm — not a
  // reference: v->hwm is suspension-shared, and a rename installing a moved
  // tombstone erases this very row (TakeHwmRows era hygiene) while the apply
  // suspends below, which would leave a reference dangling. BumpHwm also
  // refuses to resurrect an erased lane: its marks belong to the numbering
  // era the erase closed, and re-inserting them would swallow the fresh
  // era's entries as duplicates.
  const std::tuple<InodeId, uint32_t, psw::Fingerprint> lane{dir, src, lane_fp};
  uint64_t high = v->hwm[lane];
  const auto bump_hwm = [&high, &lane, &v](uint64_t seq) {
    high = std::max(high, seq);
    auto hit = v->hwm.find(lane);
    if (hit != v->hwm.end()) {
      hit->second = std::max(hit->second, high);
    }
  };
  // Resolved-prefix bridge: every batch starts at the source log's FRONT
  // (push gather, aggregation snapshot, fallback backlog all send FIFO
  // prefixes), and a log's front only advances through resolution — an ack
  // from this server, a moved_fp verdict trim (those entries migrated with
  // the renamed directory's entry list), or an obsolete-removal trim. So
  // everything below the first seq is settled and must not be waited for:
  // after a rename chain, a rebound or straggler batch resumes above marks
  // this incarnation of the lane never saw, and without the bridge it would
  // gap-stall forever. Stale duplicates cannot abuse this (their first seq
  // is never above the live front), and batches are single-flight per
  // (source, owner), so a bridged batch cannot overtake unresolved entries.
  bump_hwm(entries.front().seq - 1);
  std::vector<ChangeLogEntry> todo;
  uint64_t next = high + 1;
  for (ChangeLogEntry& e : entries) {
    if (e.seq < next) {
      ctx_.stats->entries_deduped++;
      continue;
    }
    if (e.seq > next) {
      break;  // mid-batch gap: apply the contiguous prefix only
    }
    todo.push_back(std::move(e));
    ++next;
  }
  if (todo.empty()) {
    co_return;
  }

  // Per-entry commit-stamp LWW: each name's last applied write keeps a stamp
  // row, and an entry whose (ts, origin, src, seq) stamp is older than the
  // row no-ops. Within one lane seqs are FIFO with
  // non-decreasing timestamps, so this never fires for plain traffic — it
  // resolves the cross-era case (a rebound old-era entry arriving after a
  // same-name new-era entry; the hwm lanes are per-fingerprint and cannot
  // see that inversion) and WAN-replayed conflicts (the stamp a WAN apply
  // left carries its origin cluster). Runs BEFORE the WAL appends so records
  // exist only for winners — replay then re-applies unconditionally and
  // max-merges the stamps. Winners' stamps are written with their rows
  // (ServerVolatile::RedoDirent), so an entry whose name already has an
  // in-batch winner compares against that winner's stamp, not the pre-batch
  // row: a lane is not stamp-ordered once RebindMovedLog appends older
  // old-era entries behind pending new-era ones. Losers still resolve the
  // lane: final_seq is bumped into the hwm after the apply either way.
  //
  // Winners get a presence-aware size delta: a write that wins over an
  // already-applied same-name entry from another era or cluster replaces the
  // entry row rather than adding one, and the directory's entry count must
  // say so (the size half of the phantom-dirent gap).
  const uint64_t final_seq = todo.back().seq;
  const auto stamp_of = [this, src](const ChangeLogEntry& e) {
    return LwwStamp{e.timestamp, ctx_.config->cluster_id, src, e.seq};
  };
  // The batch's last winner per name: its stamp stands in for the name's
  // stamp row (the row is written by the winner's redo, after this pass),
  // and its op says whether the entry row will be there.
  struct Winner {
    LwwStamp stamp;
    bool present = false;
  };
  std::map<std::string, Winner> winners;
  std::vector<ChangeLogEntry> kept;
  kept.reserve(todo.size());
  for (ChangeLogEntry& e : todo) {
    const LwwStamp incoming = stamp_of(e);
    auto w = winners.find(e.name);
    std::optional<LwwStamp> newest;
    if (w != winners.end()) {
      newest = w->second.stamp;
    } else if (auto row = v->kv.Get(LwwStampKey(dir, e.name))) {
      newest = LwwStamp::Decode(*row);
    }
    if (newest.has_value() && incoming < *newest) {
      ctx_.stats->wan_conflicts_lww++;
      continue;  // a newer write already resolved this name
    }
    const bool creates = e.op == OpType::kCreate || e.op == OpType::kMkdir;
    const bool present = w != winners.end()
                             ? w->second.present
                             : v->kv.Get(EntryKey(dir, e.name)).has_value();
    e.size_delta = creates ? (present ? 0 : 1) : (present ? -1 : 0);
    winners[e.name] = Winner{incoming, creates};
    kept.push_back(std::move(e));
  }
  todo = std::move(kept);
  if (todo.empty()) {
    bump_hwm(final_seq);
    co_return;
  }

  co_await ctx_.cpu->Run(ctx_.costs->kv_get);
  if (v->dead) co_return;
  auto value = v->kv.Get(ikey);
  if (!value.has_value()) {
    co_return;  // directory vanished under a concurrent rmdir
  }
  Attr attr = Attr::Decode(*value);

  // Each logged record is applied by the same row redo WAL replay runs
  // (ServerVolatile::RedoDirent), so the runtime and recovered states agree
  // by construction.
  auto record = [&](const ChangeLogEntry& e, uint64_t result_size,
                    int64_t result_mtime) {
    EntryApplyRecord rec;
    rec.dir = dir;
    rec.src_server = src;
    rec.fp = lane_fp;
    rec.entry = e;
    rec.result_size = result_size;
    rec.result_mtime = result_mtime;
    rec.batch_token = batch_token;
    return rec;
  };
  if (ctx_.config->compaction) {
    // §5.3: consolidated attribute update (every record carries the batch's
    // final size/mtime; one attr-merge charge) + entry-list operations fanned
    // out across cores; WAL appends are group-committed.
    int64_t size_delta = 0;
    int64_t max_ts = attr.mtime;
    for (const ChangeLogEntry& e : todo) {
      size_delta += e.size_delta;
      max_ts = std::max(max_ts, e.timestamp);
    }
    const uint64_t result_size = static_cast<uint64_t>(
        std::max<int64_t>(0, static_cast<int64_t>(attr.size) + size_delta));
    auto join = std::make_shared<sim::JoinCounter>(
        ctx_.sim, static_cast<int>(todo.size()));
    for (const ChangeLogEntry& e : todo) {
      EntryApplyRecord rec = record(e, result_size, max_ts);
      ctx_.durable->wal.Append(kWalEntryApply, rec.Encode());
      sim::Spawn([](ServerContext* ctx, VolPtr vol, std::string ikey,
                    EntryApplyRecord rec, LwwStamp stamp,
                    std::shared_ptr<sim::JoinCounter> jc) -> sim::Task<void> {
        co_await ctx->cpu->Run(ctx->costs->wal_append_batched +
                               ctx->costs->changelog_apply_entry);
        if (!vol->dead) {
          vol->RedoDirent(rec.dir, ikey, rec.entry, stamp, rec.result_size,
                          rec.result_mtime);
        }
        jc->Done();
      }(&ctx_, v, ikey, std::move(rec), stamp_of(e), join));
    }
    co_await join->Wait();
    if (v->dead) co_return;
    co_await ctx_.cpu->Run(ctx_.costs->attr_merge_apply);
    if (v->dead) co_return;
    bump_hwm(final_seq);
  } else {
    // No compaction (+Async ablation): every entry is a full read-modify-
    // write of the directory inode, serialized under the inode lock.
    for (const ChangeLogEntry& e : todo) {
      const int64_t new_size =
          std::max<int64_t>(0, static_cast<int64_t>(attr.size) + e.size_delta);
      const EntryApplyRecord rec =
          record(e, static_cast<uint64_t>(new_size),
                 std::max(attr.mtime, e.timestamp));
      co_await ctx_.cpu->Run(ctx_.costs->wal_append);
      if (v->dead) co_return;
      ctx_.durable->wal.Append(kWalEntryApply, rec.Encode());
      co_await ctx_.cpu->Run(ctx_.costs->dir_update_cpu);
      if (v->dead) co_return;
      co_await sim::Delay(
          ctx_.sim, ctx_.costs->dir_update_critical - ctx_.costs->dir_update_cpu);
      if (v->dead) co_return;
      v->RedoDirent(dir, ikey, e, stamp_of(e), rec.result_size,
                    rec.result_mtime);
      attr.size = rec.result_size;
      attr.mtime = rec.result_mtime;
      bump_hwm(e.seq);
    }
    bump_hwm(final_seq);  // LWW-dropped tail entries are resolved too
  }
  ctx_.stats->entries_applied += todo.size();

  // WAN capture: publish every locally-committed dirent apply to the
  // replicator (null without a WAN tier). Only this path feeds the sink —
  // WAN replays enter through SwitchServer::EnqueueWanApply instead, so a
  // shipped batch cannot echo back out of the cluster that applied it.
  if (ctx_.wan_sink != nullptr) {
    for (const ChangeLogEntry& e : todo) {
      WanEntry we;
      we.dir = dir;
      we.dir_fp = fp;
      we.origin_cluster = ctx_.config->cluster_id;
      we.src_server = src;
      we.entry = e;
      ctx_.wan_sink->OnEntryApplied(we);
    }
  }
}

// ---------------------------------------------------------------------------
// Responder side
// ---------------------------------------------------------------------------

sim::Task<void> Aggregation::HandleAggCollect(net::Packet p, VolPtr v) {
  auto body = p.body;
  const auto* msg = net::MsgAs<AggCollect>(body);
  if (msg == nullptr || msg->fps.empty()) {
    co_return;
  }
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);
  if (v->dead) co_return;

  // Fig 6 step 5: insert the removed directory into the invalidation list
  // *before* snapshotting, so racing double-inode ops fail their checks.
  if (msg->invalidate) {
    v->inval.Add(msg->invalidate_id, ctx_.Now());
  }

  // One session per group, its collector-share lock taken in fingerprint
  // order (the set is ascending). A session is registered before its lock
  // is granted, so a group whose session exists — open, or still waiting
  // for its lock — keeps it and only adopts the newer seq. A retried collect
  // must not queue for the lock itself: behind an appender that queued after
  // the first attempt, it would be granted only once AggDone had closed the
  // session, reopen it, and hold the lock until the watchdog reaped it.
  std::vector<std::pair<psw::Fingerprint, uint64_t>> opened;
  for (psw::Fingerprint fp : msg->fps) {
    auto it = v->ShardFor(fp).agg_sessions.find(fp);
    if (it != v->ShardFor(fp).agg_sessions.end()) {
      it->second.seq = std::max(it->second.seq, msg->agg_seq);
      continue;
    }
    ServerVolatile::AggSession session;
    session.seq = msg->agg_seq;
    session.id = ++v->ShardFor(fp).agg_session_ids;
    const uint64_t id = session.id;
    v->ShardFor(fp).agg_sessions.emplace(fp, std::move(session));
    auto lock = co_await v->ShardFor(fp).changelog_locks.AcquireShared(
        FpKey(fp), kClCollectors);
    if (v->dead) co_return;
    it = v->ShardFor(fp).agg_sessions.find(fp);
    if (it == v->ShardFor(fp).agg_sessions.end() || it->second.id != id) {
      continue;  // closed (AggDone, watchdog) while we waited; drop the lock
    }
    it->second.lock = std::move(lock);
    opened.emplace_back(fp, it->second.seq);
  }
  if (!opened.empty()) {
    sim::Spawn(ResponderSessionWatchdog(v, std::move(opened)));
  }

  // Reply once every group's session is open, with the newest seq adopted:
  // a handler that joined a session still waiting for its lock leaves the
  // reply to the handler that opens it.
  uint64_t seq = 0;
  for (psw::Fingerprint fp : msg->fps) {
    auto it = v->ShardFor(fp).agg_sessions.find(fp);
    if (it == v->ShardFor(fp).agg_sessions.end() || !it->second.lock.held()) {
      co_return;
    }
    seq = std::max(seq, it->second.seq);
  }
  auto reply = std::make_shared<AggEntries>();
  reply->fp = msg->fps.front();
  reply->agg_seq = seq;
  reply->src_server = ctx_.config->index;
  for (psw::Fingerprint fp : msg->fps) {
    AppendPendingLogs(*v, fp, &reply->dirs);
  }
  net::CallOptions opts;
  opts.timeout = sim::Microseconds(500);
  opts.max_attempts = 5;
  auto r = co_await ctx_.rpc->Call(msg->initiator_node, reply, opts);
  (void)r;  // receipt ack only; AggDone (or the watchdog) finishes the session
}

void Aggregation::HandleAggEntries(net::Packet p, VolPtr v) {
  const auto* msg = net::MsgAs<AggEntries>(p.body);
  if (msg == nullptr) {
    return;
  }
  ctx_.rpc->Respond(p, net::MakeMsg<Ack>());
  auto it = v->ShardFor(msg->fp).agg_waits.find(msg->fp);
  if (it == v->ShardFor(msg->fp).agg_waits.end()) {
    return;  // aggregation already finished
  }
  auto& w = *it->second;
  for (const auto& pd : msg->dirs) {
    // A straggler of an earlier round led by the same group may carry
    // groups this round does not cover (nor hold the gates of).
    if (!std::binary_search(w.fps.begin(), w.fps.end(), pd.fp)) {
      continue;
    }
    w.collected.push_back(pd);
    w.collected_src.push_back(msg->src_server);
  }
  if (msg->agg_seq == w.seq) {
    w.pending.erase(msg->src_server);
    if (w.pending.empty() && w.slot != nullptr) {
      w.slot->Set(true);
    }
  }
}

void Aggregation::HandleAggDone(const AggDone& done, VolPtr v) {
  // Moved rows first, independent of the sessions (a watchdog-reaped session
  // must not drop a rebind verdict): our collected entries for a renamed-away
  // directory were not acked — re-key them toward the new owner instead.
  if (rebinder_ != nullptr) {
    for (const auto& row : done.moved) {
      if (row.src_server != ctx_.config->index) {
        continue;
      }
      sim::Spawn(rebinder_->RebindMovedLogDetached(v, row.dir, row.fp,
                                                   row.new_fp, row.applied_seq,
                                                   /*from_aggregation=*/true));
    }
  }
  for (psw::Fingerprint fp : done.fps) {
    auto it = v->ShardFor(fp).agg_sessions.find(fp);
    if (it == v->ShardFor(fp).agg_sessions.end()) {
      continue;
    }
    if (done.agg_seq < it->second.seq) {
      continue;  // stale completion of an earlier attempt
    }
    auto logs = v->ShardFor(fp).changelogs.find(fp);
    if (logs != v->ShardFor(fp).changelogs.end()) {
      for (const auto& row : done.acked) {
        if (row.src_server != ctx_.config->index || row.fp != fp) {
          continue;
        }
        auto dit = logs->second.find(row.dir);
        if (dit == logs->second.end()) {
          continue;
        }
        for (uint64_t lsn : dit->second.AckUpTo(row.acked_seq)) {
          ctx_.durable->wal.MarkApplied(lsn);
        }
      }
    }
    v->ShardFor(fp).agg_sessions.erase(it);  // releases the lock (9a)
  }
}

sim::Task<void> Aggregation::ResponderSessionWatchdog(
    VolPtr v, std::vector<std::pair<psw::Fingerprint, uint64_t>> sessions) {
  while (!sessions.empty()) {
    co_await sim::Delay(ctx_.sim, ctx_.config->responder_session_timeout);
    if (v->dead) co_return;
    std::erase_if(sessions, [this, &v](
                                std::pair<psw::Fingerprint, uint64_t>& s) {
      auto it = v->ShardFor(s.first).agg_sessions.find(s.first);
      if (it == v->ShardFor(s.first).agg_sessions.end()) {
        return true;  // finished normally
      }
      if (it->second.seq != s.second) {
        s.second = it->second.seq;  // still live (retries); keep watching
        return false;
      }
      // The initiator went silent (likely crashed): release the lock.
      // Pending entries stay; recovery or the next aggregation re-collects
      // them.
      v->ShardFor(s.first).agg_sessions.erase(it);
      ctx_.stats->agg_sessions_reaped++;
      return true;
    });
  }
}

}  // namespace switchfs::core
