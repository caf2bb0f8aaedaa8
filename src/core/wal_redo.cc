// WAL redo and crash recovery (paper §5.4.2, §A.1).
//
// Every WAL record kind has one synchronous redo on ServerVolatile.
// SwitchServer::ReplayWalInto calls it for each record of the log, and the
// runtime commit of the record calls it right after the append
// (CommitOpRecord, CommitBulkRecord, the WAN apply; an entry apply runs the
// RedoDirent and CommitPushToken that RedoEntryApply is made of, in
// Aggregation::ApplyEntries and PushEngine::ApplySection) —
// so a recovered server rebuilds exactly the rows it held before the crash,
// with no replay-only row logic to drift from the runtime.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/schema.h"
#include "src/core/server.h"
#include "src/core/wal_records.h"

namespace switchfs::core {

// ---------------------------------------------------------------------------
// Redo, one per record kind
// ---------------------------------------------------------------------------

void ServerVolatile::RedoDirent(const InodeId& dir, const std::string& ikey,
                                const ChangeLogEntry& e, const LwwStamp& stamp,
                                uint64_t result_size, int64_t result_mtime) {
  auto value = kv.Get(ikey);
  if (!value.has_value()) {
    return;
  }
  const std::string ekey = EntryKey(dir, e.name);
  if (e.op == OpType::kCreate || e.op == OpType::kMkdir) {
    kv.Put(ekey, EncodeEntryValue(e.entry_type));
  } else {
    kv.Delete(ekey);
  }
  const std::string skey = LwwStampKey(dir, e.name);
  auto srow = kv.Get(skey);
  if (!srow.has_value() || LwwStamp::Decode(*srow) < stamp) {
    kv.Put(skey, stamp.Encode());
  }
  Attr attr = Attr::Decode(*value);
  attr.size = result_size;
  attr.mtime = std::max(attr.mtime, result_mtime);
  attr.atime = std::max(attr.atime, attr.mtime);
  kv.Put(ikey, attr.Encode());
}

std::optional<ServerVolatile::RemovedDir> ServerVolatile::RedoOpCommit(
    const OpCommitRecord& rec, int64_t now) {
  std::optional<RemovedDir> removed;
  if (rec.inode_key.empty()) {
    // No inode mutation on this server.
  } else if (rec.inode_delete) {
    auto old = kv.Get(rec.inode_key);
    kv.Delete(rec.inode_key);
    if (old.has_value()) {
      const Attr attr = Attr::Decode(*old);
      if (attr.is_dir()) {
        // The directory's entry list and index row go with its inode (an
        // rmdir'd directory has no entries; a renamed one exports them).
        removed.emplace();
        removed->id = attr.id;
        kv.ScanPrefix(EntryPrefix(attr.id),
                      [&](const std::string& k, const std::string& val) {
                        removed->entries.push_back(
                            DirEntry{std::string(EntryNameFromKey(k)),
                                     DecodeEntryValue(val)});
                        return true;
                      });
        for (const DirEntry& e : removed->entries) {
          kv.Delete(EntryKey(attr.id, e.name));
        }
        kv.Delete(DirIndexKey(attr.id));
      }
    }
  } else {
    kv.Put(rec.inode_key, rec.inode_value);
    if (rec.op == OpType::kMkdir || rec.op == OpType::kRename) {
      const Attr attr = Attr::Decode(rec.inode_value);
      if (attr.is_dir()) {
        if (rec.op == OpType::kRename) {
          // Arrival era boundary: earlier-era applied marks must not dedup
          // this era's renumbered entries.
          TakeHwmRows(attr.id, 0);
        }
        // A directory is owned where its (pid, name) key lives: index
        // id -> inode key for aggregation applies.
        kv.Put(DirIndexKey(attr.id),
               EncodeDirIndex(rec.inode_key,
                              FingerprintFromInodeKey(rec.inode_key)));
        // Rename arrival: the migrated entry list is as committed as the
        // attr whose size counts it.
        for (const DirEntry& e : rec.install_entries) {
          kv.Put(EntryKey(attr.id, e.name), EncodeEntryValue(e.type));
        }
      }
    }
  }
  if (rec.has_moved_tombstone) {
    // Directory-rename source leg: record where the directory went, so a
    // push or aggregation that finds it gone re-keys instead of trimming.
    // Departure era boundary: the tombstone takes over the applied marks and
    // the live lanes go. Newest epoch wins, so install order is irrelevant;
    // the TTL counts from `now`.
    TakeHwmRows(rec.moved_dir, rec.moved_old_fp);
    MovedDir tomb;
    tomb.old_fp = rec.moved_old_fp;
    tomb.new_fp = rec.moved_new_fp;
    tomb.new_owner = rec.moved_new_owner;
    tomb.epoch = rec.moved_epoch;
    tomb.installed_at = now;
    tomb.applied = rec.moved_applied;
    InstallMovedTombstone(rec.moved_dir, tomb);
  }
  return removed;
}

void ServerVolatile::RedoBulkCommit(const BulkCommitRecord& rec) {
  for (const BulkCommitRecord::Item& item : rec.items) {
    kv.Put(item.inode_key, item.inode_value);
  }
}

void ServerVolatile::RestoreChangeLog(const OpCommitRecord& rec,
                                      uint64_t lsn) {
  if (!rec.has_entry) {
    return;
  }
  ChangeLogEntry e = rec.entry;
  e.wal_lsn = lsn;
  GetChangeLog(rec.parent_fp, rec.parent_dir).Restore(std::move(e));
}

void ServerVolatile::RestoreChangeLog(const BulkCommitRecord& rec,
                                      uint64_t lsn) {
  ChangeLog& clog = GetChangeLog(rec.parent_fp, rec.parent_dir);
  for (size_t i = 0; i < rec.items.size(); ++i) {
    ChangeLogEntry e = rec.items[i].entry;
    e.wal_lsn = i + 1 == rec.items.size() ? lsn : 0;
    clog.Restore(std::move(e));
  }
}

void ServerVolatile::RedoEntryApply(const EntryApplyRecord& rec,
                                    uint32_t cluster_id) {
  // The token first: a record the hwm dedups below still names a committed
  // token.
  CommitPushToken(rec.dir, rec.src_server, rec.fp, rec.batch_token,
                  rec.entry.seq);
  uint64_t& high = hwm[{rec.dir, rec.src_server, rec.fp}];
  if (rec.entry.seq <= high) {
    return;  // already applied (idempotent redo)
  }
  high = rec.entry.seq;
  // Records exist only for entries that won their LWW comparison at
  // runtime, so the redo is unconditional; the max-merged stamps only need
  // to be right for FUTURE arrivals (a late cross-era or WAN entry).
  std::string ikey;
  psw::Fingerprint fp = 0;
  if (LookupDirIndex(rec.dir, &ikey, &fp)) {
    RedoDirent(rec.dir, ikey, rec.entry,
               LwwStamp{rec.entry.timestamp, cluster_id, rec.src_server,
                        rec.entry.seq},
               rec.result_size, rec.result_mtime);
  }
}

void ServerVolatile::RedoWanApply(const WanApplyRecord& rec) {
  std::string ikey;
  psw::Fingerprint fp = 0;
  if (LookupDirIndex(rec.dir, &ikey, &fp)) {
    RedoDirent(rec.dir, ikey, rec.entry,
               LwwStamp{rec.entry.timestamp, rec.origin_cluster,
                        rec.src_server, rec.entry.seq},
               rec.result_size, rec.result_mtime);
  }
}

void ServerVolatile::CommitPushToken(const InodeId& dir, uint32_t src,
                                     psw::Fingerprint fp, uint64_t token,
                                     uint64_t acked_seq) {
  if (token == 0) {
    return;
  }
  PushTokenState& ts = push_tokens[{dir, src}];
  if (ts.fp == fp) {
    ts.token = std::max(ts.token, token);
    ts.acked_seq = std::max(ts.acked_seq, acked_seq);
  } else {
    ts = PushTokenState{token, acked_seq, fp};
  }
}

// ---------------------------------------------------------------------------
// Runtime commits
// ---------------------------------------------------------------------------

sim::Task<std::optional<ServerVolatile::RemovedDir>> CommitOpRecord(
    const ServerContext& ctx, VolPtr v, OpCommitRecord rec,
    sim::SimTime kv_cost) {
  // Rename and link commit legs append WITHOUT the fp-group change-log lock
  // (taking it would invert the upsert's cl-then-inode order), so the group
  // lock alone does not serialize seq assignment: the per-log append mutex
  // does, held through the restore.
  LockTable::Handle append_lock;
  if (rec.has_entry) {
    append_lock =
        co_await v->ShardFor(rec.parent_fp)
            .changelog_append_locks.AcquireExclusive(
                ClAppendKey(rec.parent_fp, rec.parent_dir));
    if (v->dead) co_return std::nullopt;
    rec.entry.seq =
        v->GetChangeLog(rec.parent_fp, rec.parent_dir).last_appended_seq() + 1;
  }
  co_await ctx.cpu->Run(ctx.costs->wal_append);
  if (v->dead) co_return std::nullopt;
  const uint64_t lsn = ctx.durable->wal.Append(kWalOpCommit, rec.Encode());
  if (kv_cost > 0) {
    co_await ctx.cpu->Run(kv_cost);
    if (v->dead) co_return std::nullopt;
  }
  std::optional<ServerVolatile::RemovedDir> removed =
      v->RedoOpCommit(rec, ctx.Now());
  if (rec.has_entry) {
    co_await ctx.cpu->Run(ctx.costs->changelog_append);
    if (v->dead) co_return std::nullopt;
    v->RestoreChangeLog(rec, lsn);
  }
  co_return removed;
}

sim::Task<void> CommitBulkRecord(const ServerContext& ctx, VolPtr v,
                                 BulkCommitRecord rec) {
  auto append_lock =
      co_await v->ShardFor(rec.parent_fp)
          .changelog_append_locks.AcquireExclusive(
              ClAppendKey(rec.parent_fp, rec.parent_dir));
  if (v->dead) co_return;
  uint64_t seq =
      v->GetChangeLog(rec.parent_fp, rec.parent_dir).last_appended_seq();
  for (BulkCommitRecord::Item& item : rec.items) {
    item.entry.seq = ++seq;
  }
  const auto n = static_cast<sim::SimTime>(rec.items.size());
  co_await ctx.cpu->Run(ctx.costs->wal_append +
                        (n - 1) * ctx.costs->wal_append_batched);
  if (v->dead) co_return;
  const uint64_t lsn = ctx.durable->wal.Append(kWalBulkCommit, rec.Encode());
  co_await ctx.cpu->Run(n * ctx.costs->kv_put);
  if (v->dead) co_return;
  v->RedoBulkCommit(rec);
  co_await ctx.cpu->Run(ctx.costs->changelog_append);
  if (v->dead) co_return;
  v->RestoreChangeLog(rec, lsn);
}

// ---------------------------------------------------------------------------
// Crash & recovery
// ---------------------------------------------------------------------------

void SwitchServer::Crash() {
  vol_->dead = true;
  vol_ = std::make_shared<ServerVolatile>(sim_, config_.shard_count);
  vol_->dead = true;  // stays dead until Recover() finishes the replay
  serving_ = false;
  rpc_.SetEnabled(false);
  rpc_.ResetVolatileState();
}

void SwitchServer::ReplayWalInto(ServerVolatile& v) {
  for (const kv::WalRecord& r : durable_->wal.records()) {
    stats_.wal_replayed++;
    switch (r.type) {
      case kWalOpCommit: {
        const OpCommitRecord rec = OpCommitRecord::Decode(r.payload);
        v.RedoOpCommit(rec, Now());
        if (!r.applied) {
          v.RestoreChangeLog(rec, r.lsn);
        }
        break;
      }
      case kWalBulkCommit: {
        const BulkCommitRecord rec = BulkCommitRecord::Decode(r.payload);
        v.RedoBulkCommit(rec);
        if (!r.applied) {
          v.RestoreChangeLog(rec, r.lsn);
        }
        break;
      }
      case kWalEntryApply:
        v.RedoEntryApply(EntryApplyRecord::Decode(r.payload),
                         config_.cluster_id);
        break;
      case kWalWanApply:
        v.RedoWanApply(WanApplyRecord::Decode(r.payload));
        break;
      default:
        break;
    }
  }
}

sim::Task<void> SwitchServer::Recover() {
  // Fresh volatile incarnation. The root is seeded, not logged: seed it
  // before the replay, so the replayed entries of "/" have a directory to
  // land in. (Nothing runs between here and the end of the replay.)
  auto v = std::make_shared<ServerVolatile>(sim_, config_.shard_count);
  vol_ = v;
  SeedRoot();
  ReplayWalInto(*v);
  rpc_.SetEnabled(true);

  // Charge the redo cost: dominated by per-record work (§7.7).
  const size_t records = durable_->wal.record_count();
  const size_t chunk = 256;
  for (size_t i = 0; i < records; i += chunk) {
    const size_t n = std::min(chunk, records - i);
    co_await cpu_.Run(static_cast<sim::SimTime>(n) *
                      costs_->wal_replay_per_record);
    if (v->dead) co_return;
  }

  // Flush rebuilt backlogs and re-aggregate owned directories so interrupted
  // aggregations complete (§A.1).
  co_await FlushAllChangeLogs();
  if (v->dead) co_return;
  co_await AggregateAllOwnedDirs();
  if (v->dead) co_return;

  // Clone the invalidation list from a healthy peer (§5.4.2).
  for (uint32_t s = 0; s < cluster_->ServerCount(); ++s) {
    if (s == config_.index) {
      continue;
    }
    auto r = co_await rpc_.Call(cluster_->ServerNode(s),
                                net::MakeMsg<InvalCloneReq>());
    if (v->dead) co_return;
    if (r.ok()) {
      if (const auto* resp = net::MsgAs<InvalCloneResp>(*r)) {
        v->inval.Merge(resp->entries);
        break;
      }
    }
  }
  serving_ = true;
}

}  // namespace switchfs::core
