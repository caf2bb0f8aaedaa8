#include "src/core/push_engine.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/cache_evict.h"
#include "src/sim/discipline.h"
#include "src/sim/sync.h"
#include "src/tracker/dirty_tracker.h"

namespace switchfs::core {

void PushEngine::EnqueueBacklog(VolPtr v, psw::Fingerprint fp,
                                const InodeId& dir) {
  v->ShardFor(fp).pushers[ctx_.OwnerOf(fp)].ready.insert({fp, dir});
}

void PushEngine::MaybeSchedulePush(VolPtr v, psw::Fingerprint fp,
                                   const InodeId& dir) {
  const size_t shard = ShardIndexForFp(fp, v->num_shards());
  auto logs = v->ShardAt(shard).changelogs.find(fp);
  if (logs == v->ShardAt(shard).changelogs.end()) {
    return;
  }
  auto it = logs->second.find(dir);
  if (it == logs->second.end() || it->second.empty()) {
    return;
  }
  const uint32_t owner = ctx_.OwnerOf(fp);
  // sfs-lint: allow(borrow-across-suspend, non-coroutine function — pushers is a std::map whose slots are never erased)
  auto& st = v->ShardAt(shard).pushers[owner];
  st.ready.insert({fp, dir});
  st.activity++;
  if (st.retry_timer_armed) {
    // The owner is in failure backoff: let the retry timer pace the next
    // attempt instead of hammering a down owner at traffic rate.
    return;
  }
  if (static_cast<int>(it->second.size()) >= ctx_.config->push_mtu_entries ||
      ReadyEntries(v->ShardAt(shard), st, ctx_.config->push_mtu_entries) >=
          ctx_.config->push_mtu_entries) {
    if (ctx_.Now() < st.pace_until) {
      // The owner asked for breathing room (PushResp::retry_after): defer
      // the MTU-triggered drain to the idle timer, which waits out the
      // pacing deadline and flushes a bigger coalesced batch.
      ctx_.stats->push_paced_drains++;
      if (!st.idle_timer_armed) {
        st.idle_timer_armed = true;
        sim::Spawn(OwnerIdleTimer(v, shard, owner));
      }
      return;
    }
    sim::Spawn(DrainOwner(v, shard, owner));
    return;
  }
  if (!st.idle_timer_armed) {
    st.idle_timer_armed = true;
    sim::Spawn(OwnerIdleTimer(v, shard, owner));
  }
}

int PushEngine::ReadyEntries(ServerShard& sh, OwnerPusher& st, int cap) const {
  int total = 0;
  for (auto it = st.ready.begin(); it != st.ready.end();) {
    const ChangeLog* log = nullptr;
    auto logs = sh.changelogs.find(it->first);
    if (logs != sh.changelogs.end()) {
      auto lit = logs->second.find(it->second);
      if (lit != logs->second.end()) {
        log = &lit->second;
      }
    }
    if (log == nullptr || log->empty()) {
      // Drained by a concurrent aggregation (or rebound away): prune, so
      // repeated scans stay O(mtu) instead of degrading to O(ready). A
      // later commit re-inserts the pair through MaybeSchedulePush.
      it = st.ready.erase(it);
      continue;
    }
    total += static_cast<int>(log->size());
    if (total >= cap) {
      break;
    }
    ++it;
  }
  return total;
}

sim::Task<void> PushEngine::OwnerIdleTimer(VolPtr v, size_t shard,
                                           uint32_t owner) {
  while (true) {
    const uint64_t seen = v->ShardAt(shard).pushers[owner].activity;
    co_await sim::Delay(ctx_.sim, ctx_.config->push_idle_timeout);
    if (v->dead) co_return;
    // sfs-lint: allow(borrow-across-suspend, pushers is a std::map whose slots are never erased — the reference is node-stable across suspensions)
    auto& st = v->ShardAt(shard).pushers[owner];
    if (st.ready.empty()) {
      st.idle_timer_armed = false;
      co_return;
    }
    if (st.activity == seen) {
      if (ctx_.Now() < st.pace_until) {
        continue;  // paced by the owner: wait another interval before flushing
      }
      // Quiet: flush the backlog (§5.3 "no new entries within an interval").
      st.idle_timer_armed = false;
      co_await DrainOwner(v, shard, owner);
      co_return;
    }
  }
}

void PushEngine::ArmRetry(VolPtr v, size_t shard, uint32_t owner) {
  auto& st = v->ShardAt(shard).pushers[owner];
  st.backoff_shift =
      std::min(st.backoff_shift + 1, ctx_.config->push_retry_max_backoff_shift);
  if (!st.retry_timer_armed) {
    st.retry_timer_armed = true;
    sim::Spawn(RetryTimer(v, shard, owner));
  }
}

sim::Task<void> PushEngine::RetryTimer(VolPtr v, size_t shard,
                                       uint32_t owner) {
  // A successful MTU-triggered drain may reset backoff_shift while this
  // timer is pending; clamp so the shift stays well-defined.
  const int shift = std::max(1, v->ShardAt(shard).pushers[owner].backoff_shift);
  const sim::SimTime delay = ctx_.config->push_retry_backoff << (shift - 1);
  co_await sim::Delay(ctx_.sim, delay);
  if (v->dead) co_return;
  v->ShardAt(shard).pushers[owner].retry_timer_armed = false;
  co_await DrainOwner(v, shard, owner);
}

sim::Task<void> PushEngine::DrainOwner(VolPtr v, size_t shard,
                                       uint32_t owner) {
  co_await DrainOwnerImpl(v, shard, owner, /*to_completion=*/false);
}

sim::Task<void> PushEngine::DrainOwnerBarrier(VolPtr v, uint32_t owner) {
  for (size_t shard = 0; shard < v->num_shards(); ++shard) {
    // Wait out an in-flight background drain: the single-flight guard would
    // otherwise no-op and the recovery flush would return with the backlog
    // still unapplied.
    while (v->ShardAt(shard).pushers[owner].draining) {
      co_await sim::Delay(ctx_.sim, sim::Microseconds(20));
      if (v->dead) co_return;
    }
    co_await DrainOwnerImpl(v, shard, owner, /*to_completion=*/true);
    if (v->dead) co_return;
  }
}

sim::Task<void> PushEngine::DrainOwnerImpl(VolPtr v, size_t shard,
                                           uint32_t owner,
                                           bool to_completion) {
  // sfs-lint: allow(borrow-across-suspend, pushers is a std::map whose slots are never erased — the reference is node-stable across suspensions)
  auto& st = v->ShardAt(shard).pushers[owner];
  if (st.draining) {
    co_return;  // a drain for this owner is already running
  }
  st.draining = true;
  while (!st.ready.empty()) {
    // ---- gather one MTU-bounded batch across the owner's ready logs ----
    auto req = std::make_shared<PushReq>();
    req->src_server = ctx_.config->index;
    std::vector<std::pair<psw::Fingerprint, InodeId>> took;
    int budget = ctx_.config->push_mtu_entries;
    // Snapshot at most one batch's worth of keys: every gathered section
    // carries at least one entry, so a batch never spans more than
    // mtu_entries logs (one log in per-dir mode). Gathered keys are erased,
    // so successive rounds walk the queue without re-copying it.
    std::vector<std::pair<psw::Fingerprint, InodeId>> want;
    const size_t key_cap = ctx_.config->batch_pushes
                               ? static_cast<size_t>(ctx_.config->push_mtu_entries)
                               : size_t{1};
    for (auto it = st.ready.begin();
         it != st.ready.end() && want.size() < key_cap; ++it) {
      want.push_back(*it);
    }
    size_t i = 0;
    while (i < want.size() && budget > 0) {
      const psw::Fingerprint fp = want[i].first;
      auto lock = co_await v->ShardAt(shard).changelog_locks.AcquireShared(
          FpKey(fp), kClAppenders);
      if (v->dead) co_return;
      for (; i < want.size() && want[i].first == fp && budget > 0; ++i) {
        st.ready.erase(want[i]);
        auto logs = v->ShardAt(shard).changelogs.find(fp);
        if (logs == v->ShardAt(shard).changelogs.end()) {
          continue;
        }
        auto lit = logs->second.find(want[i].second);
        if (lit == logs->second.end() || lit->second.empty()) {
          continue;  // already drained by an aggregation
        }
        const auto& pending = lit->second.pending();
        const size_t take =
            std::min(static_cast<size_t>(budget), pending.size());
        PushReq::PerDir pd;
        pd.dir = want[i].second;
        pd.fp = fp;
        // Idempotency token: minted monotonically per source, one per
        // gathered section. A replay of this batch (lost response, retry
        // after rebind) re-presents the same token and the owner re-acks
        // without re-applying.
        pd.batch_token = v->push_token_counter++;
        pd.entries.assign(pending.begin(),
                          pending.begin() + static_cast<ptrdiff_t>(take));
        budget -= static_cast<int>(take);
        req->dirs.push_back(std::move(pd));
        took.push_back(want[i]);
      }
    }
    if (req->dirs.empty()) {
      // Every snapshotted log turned out empty (drained by a concurrent
      // aggregation). Re-check the queue rather than exit: an MTU-full log
      // enqueued while the gather was suspended would otherwise be stranded
      // (its MTU-triggered DrainOwner no-opped against our draining flag).
      // No spin: gathered keys were erased, so the loop only re-runs on
      // genuinely new insertions, whose logs are non-empty.
      continue;
    }

    // ---- deliver: owner-local apply or one batched RPC ----
    std::vector<PushResp::AckedDir> acked;
    if (owner == ctx_.config->index) {
      ctx_.stats->pushes_local++;
      // Every section in this batch belongs to `shard` (the queue is
      // per-shard), so fanning out to apply lanes would serialize on the
      // same lane anyway — apply inline.
      for (auto& pd : req->dirs) {
        PushResp::AckedDir row =
            co_await ApplySection(v, pd.dir, req->src_server, pd.fp,
                                  std::move(pd.entries), pd.batch_token);
        if (v->dead) co_return;
        acked.push_back(row);
        NoteOwnerPush(v, pd.fp);
      }
    } else {
      size_t batch_entries = 0;
      for (const auto& pd : req->dirs) {
        batch_entries += pd.entries.size();
      }
      auto r = co_await ctx_.rpc->Call(ctx_.cluster->ServerNode(owner), req);
      if (v->dead) co_return;
      const auto* resp = r.ok() ? net::MsgAs<PushResp>(*r) : nullptr;
      if (resp == nullptr || resp->status != StatusCode::kOk) {
        // Owner unreachable (or replied garbage): re-queue the sections and
        // retry after a backoff — a failed push must never strand a backlog.
        ctx_.stats->push_failures++;
        for (const auto& key : took) {
          st.ready.insert(key);
        }
        st.draining = false;
        ArmRetry(v, shard, owner);
        co_return;
      }
      ctx_.stats->pushes_sent++;
      ctx_.stats->push_dirs_sent += req->dirs.size();
      ctx_.stats->push_entries_sent += batch_entries;
      acked = resp->acked;
      if (resp->retry_after > 0) {
        // Adaptive pacing: the owner's apply queue is deep. Remember the
        // deadline; MaybeSchedulePush and the loop below route the next
        // non-urgent drain through the idle timer until it passes.
        st.pace_until = std::max(st.pace_until, ctx_.Now() + resp->retry_after);
      }
    }

    // ---- trim acknowledged prefixes; re-queue logs that still hold work ---
    bool progressed = false;
    bool heavy_leftover = false;  // some re-queued log still holds >= an MTU
    struct Rebind {
      InodeId dir;
      psw::Fingerprint old_fp;
      psw::Fingerprint new_fp;
      uint64_t applied_seq;
    };
    std::vector<Rebind> rebinds;
    for (size_t pi = 0; pi < req->dirs.size(); ++pi) {
      const auto& pd = req->dirs[pi];
      // Rows come back one per section IN SECTION ORDER (both the local
      // apply loop and HandlePush). Match by index, not by dir: after a
      // same-owner rename the same directory can legitimately appear twice
      // in one batch under its old and new fingerprints, and a first-by-dir
      // scan would trim the second section with the other era's acked_seq —
      // numbering it never measured. Fall back to a dir scan only if the
      // responder returned a malformed row set.
      const PushResp::AckedDir* row = nullptr;
      if (pi < acked.size() && acked[pi].dir == pd.dir) {
        row = &acked[pi];
      } else {
        for (const auto& r : acked) {
          if (r.dir == pd.dir) {
            row = &r;
            break;
          }
        }
      }
      if (row != nullptr && row->status == PushResp::SectionStatus::kMoved) {
        // Renamed away (moved tombstone at the owner): neither trim nor
        // re-queue here — the log is re-keyed below, after the per-section
        // locks are released (the rebind takes two group locks in fp order).
        rebinds.push_back(Rebind{pd.dir, pd.fp, row->new_fp, row->acked_seq});
        continue;
      }
      const uint64_t acked_seq = row == nullptr ? 0 : row->acked_seq;
      // Appender share: the trim drops an acknowledged prefix from the
      // front, and appenders only add at the back under the append mutex.
      auto lock = co_await v->ShardAt(shard).changelog_locks.AcquireShared(
          FpKey(pd.fp), kClAppenders);
      if (v->dead) co_return;
      auto logs = v->ShardAt(shard).changelogs.find(pd.fp);
      if (logs == v->ShardAt(shard).changelogs.end()) {
        continue;
      }
      auto lit = logs->second.find(pd.dir);
      if (lit == logs->second.end()) {
        continue;
      }
      const size_t before = lit->second.size();
      for (uint64_t lsn : lit->second.AckUpTo(acked_seq)) {
        ctx_.durable->wal.MarkApplied(lsn);
      }
      if (lit->second.size() < before) {
        progressed = true;
      }
      if (!lit->second.empty()) {
        st.ready.insert({pd.fp, pd.dir});
        if (static_cast<int>(lit->second.size()) >= ctx_.config->push_mtu_entries) {
          heavy_leftover = true;
        }
      }
    }
    // Re-key moved sections toward their new owners. A kMoved verdict is
    // progress in itself — the section left this owner's queue for good and
    // is never re-queued here — even when the rebind finds the log already
    // re-keyed by a racing aggregation verdict or eager rebind; counting
    // that as no-progress would put a healthy owner into failure backoff.
    for (const Rebind& rb : rebinds) {
      co_await RebindMovedLog(v, rb.dir, rb.old_fp, rb.new_fp, rb.applied_seq,
                              /*from_aggregation=*/false);
      if (v->dead) co_return;
    }
    progressed = progressed || !rebinds.empty();
    if (!progressed) {
      // The owner accepted the batch but applied nothing (a sequence gap:
      // an earlier push is still missing at the owner). Back off instead of
      // spinning at simulator speed.
      st.draining = false;
      ArmRetry(v, shard, owner);
      co_return;
    }
    st.backoff_shift = 0;
    if (!to_completion && !st.ready.empty() && ctx_.Now() < st.pace_until) {
      // Paced by the owner: stop streaming batches and hand the remainder
      // to the idle timer, which waits out the deadline and coalesces.
      ctx_.stats->push_paced_drains++;
      if (!st.idle_timer_armed) {
        st.idle_timer_armed = true;
        sim::Spawn(OwnerIdleTimer(v, shard, owner));
      }
      break;
    }
    if (!to_completion && !heavy_leftover && !st.ready.empty() &&
        ReadyEntries(v->ShardAt(shard), st, ctx_.config->push_mtu_entries) <
            ctx_.config->push_mtu_entries) {
      // The remainder is a sub-MTU tail that trickled in while we were
      // pushing. Hand it to the idle timer (or the aggregate MTU trigger,
      // whichever fires first) instead of spraying small batches at
      // simulator speed — that would erode exactly the batching this
      // pusher exists for.
      if (!st.idle_timer_armed) {
        st.idle_timer_armed = true;
        sim::Spawn(OwnerIdleTimer(v, shard, owner));
      }
      break;
    }
  }
  st.draining = false;
}

sim::Task<PushResp::AckedDir> PushEngine::ApplySection(
    VolPtr v, InodeId dir, uint32_t src, psw::Fingerprint section_fp,
    std::vector<ChangeLogEntry> entries, uint64_t batch_token) {
  PushResp::AckedDir row;
  row.dir = dir;
  const uint64_t max_seq = entries.empty() ? 0 : entries.back().seq;
  // Idempotent apply: a section whose token is not above the highest token
  // committed for (dir, src) is a duplicate — a batch replayed after a lost
  // response, a retry that crossed its own ack, or a re-push after the
  // owner's crash (push_tokens is rebuilt from kWalEntryApply records). Re-
  // ack what the original apply acked so the source trims; apply nothing.
  if (batch_token != 0) {
    auto tok = v->push_tokens.find({dir, src});
    if (tok != v->push_tokens.end() && tok->second.fp == section_fp &&
        batch_token <= tok->second.token) {
      ctx_.stats->push_batches_deduped++;
      row.acked_seq = tok->second.acked_seq;
      co_return row;
    }
  }
  std::string ikey;
  psw::Fingerprint fp = 0;
  // Directory unknown here: either removed (rmdir raced the push; the inode
  // check guards an index row without its inode, on which ApplyEntries would
  // drop the entries silently without advancing the hwm) or renamed away. A
  // live moved tombstone distinguishes the two:
  //  * renamed away -> kMoved verdict. acked_seq names the prefix this owner
  //    applied before the rename (it migrated with the entry list, so
  //    re-applying at the new owner would double-count); the source re-keys
  //    the rest toward the tombstone's target (RebindMovedLog).
  //  * genuinely removed -> ack the section's max seq so the source trims
  //    the obsolete backlog instead of re-pushing it forever.
  // MovedAway repeats the live-dir lookup; that second lookup is only paid
  // on this rare gone-directory branch, the live path looks up once.
  if (!v->LookupLiveDir(dir, &ikey, &fp)) {
    const ServerVolatile::MovedDir* moved =
        v->MovedAway(dir, ctx_.Now(), ctx_.config->moved_tombstone_ttl);
    if (moved != nullptr) {
      row.status = PushResp::SectionStatus::kMoved;
      row.new_fp = moved->new_fp;
      row.new_owner = moved->new_owner;
      row.rename_epoch = moved->epoch;
      row.acked_seq = moved->AppliedFor(src, section_fp);
      co_return row;
    }
    row.acked_seq = max_seq;
    v->CommitPushToken(dir, src, section_fp, batch_token, row.acked_seq);
    co_return row;
  }
  // In-switch cache: the apply is about to move the directory's attr
  // (size/mtime) — drop any record this owner installed for it first. In
  // async mode the entries' dirty-set inserts already evicted it at the
  // switch in flight, so this is the sync-mode channel (and a cheap no-op
  // otherwise: gated on cached_fps). The exclusive inode lock is taken
  // BEFORE the evict and held through the apply: evicting outside the lock
  // leaves a window where a concurrent lookup re-installs the stale attr
  // between the evict round trip and the apply's KV write.
  auto ino_lock = co_await v->ShardFor(fp).inode_locks.AcquireExclusive(ikey);
  if (v->dead) {
    row.acked_seq = 0;
    co_return row;
  }
  co_await EvictSwitchCacheEntry(ctx_, v, fp);
  if (v->dead) {
    row.acked_seq = 0;
    co_return row;
  }
  co_await agg_.ApplyEntries(v, dir, src, section_fp, std::move(entries),
                             ikey, batch_token);
  if (v->dead) {
    row.acked_seq = 0;
    co_return row;
  }
  auto it = v->hwm.find({dir, src, section_fp});
  row.acked_seq = it == v->hwm.end() ? 0 : it->second;
  // Commit the section's token AFTER the apply: the WAL records carrying it
  // are durable by now, so a crash between apply and ack replays to the same
  // {token, acked_seq} and the duplicate still no-ops.
  v->CommitPushToken(dir, src, section_fp, batch_token, row.acked_seq);
  co_return row;
}

sim::Task<void> PushEngine::ApplySectionTask(
    VolPtr v, PushReq::PerDir pd, uint32_t src,
    std::shared_ptr<std::vector<PushResp::AckedDir>> rows, size_t slot,
    std::shared_ptr<sim::JoinCounter> jc) {
  (*rows)[slot] = co_await ApplySection(v, pd.dir, src, pd.fp,
                                        std::move(pd.entries), pd.batch_token);
  if (!v->dead) {
    v->inflight_push_sections--;
    NoteOwnerPush(v, pd.fp);
  }
  // Unconditional, dead or not: HandlePush's join must resolve so its frame
  // (and the captured shared state) unwinds.
  jc->Done();
}

sim::Task<void> PushEngine::HandlePush(net::Packet p, VolPtr v) {
  auto body = p.body;
  const auto* msg = net::MsgAs<PushReq>(body);
  if (msg == nullptr) {
    co_return;
  }
  ctx_.stats->pushes_received++;
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);
  if (v->dead) co_return;
  auto resp = std::make_shared<PushResp>();
  resp->status = StatusCode::kOk;
  // Busy signal for adaptive pacing: sections are counted in-flight while
  // they apply (each decrements as it completes, so by reply time the count
  // reflects the OTHER pushes still applying). Dead incarnations skip the
  // unwind — the counter is volatile and dies with them.
  v->inflight_push_sections += static_cast<int>(msg->dirs.size());
  // Fan the sections out onto their shards' apply lanes: each lane applies
  // serially, lanes run concurrently on the CpuPool, and rows land at their
  // section's index so the response preserves SECTION ORDER (the source
  // matches rows by index — a same-owner rename can put the same dir in one
  // batch twice under two fingerprints).
  auto rows = std::make_shared<std::vector<PushResp::AckedDir>>(
      msg->dirs.size());
  auto jc = std::make_shared<sim::JoinCounter>(
      ctx_.sim, static_cast<int>(msg->dirs.size()));
  for (size_t i = 0; i < msg->dirs.size(); ++i) {
    const size_t shard = ShardIndexForFp(msg->dirs[i].fp, v->num_shards());
    // Plain-callable thunk: captures copies, builds the coroutine only when
    // the lane runs it (a coroutine lambda's captures would dangle once the
    // lambda object queued in the lane is destroyed).
    EnqueueShardTask(
        v, shard, ShardLane::kApply,
        [this, v, pd = msg->dirs[i], src = msg->src_server, rows, i, jc]() {
          return ApplySectionTask(v, pd, src, rows, i, jc);
        });
  }
  co_await jc->Wait();
  if (v->dead) co_return;
  resp->acked = std::move(*rows);
  if (v->inflight_push_sections > ctx_.config->push_busy_threshold) {
    // Deep apply queue: hint the source to defer its next non-urgent drain
    // (it coalesces a bigger batch behind its idle timer instead).
    resp->retry_after = ctx_.config->push_pace_hint;
    ctx_.stats->push_pace_hints++;
  }
  ctx_.rpc->Respond(p, resp);
}

sim::Task<bool> PushEngine::RebindMovedLog(VolPtr v, InodeId dir,
                                           psw::Fingerprint old_fp,
                                           psw::Fingerprint new_fp,
                                           uint64_t applied_seq,
                                           bool from_aggregation) {
  if (old_fp == new_fp) {
    // Degenerate verdict (a chained rename led back to the same
    // fingerprint): the log is already keyed correctly; re-keying onto
    // itself would self-append forever in DrainInto.
    co_return false;
  }
  size_t moved_entries = 0;
  {
    // The (old, new) pairs below straddle two shard domains when the rename
    // changed the fingerprint's shard — one of the two sanctioned cross-
    // shard handoffs. The witness sanctions the same-class pairs for the
    // discipline checker; ordering by fingerprint value stays globally
    // consistent across shards, so the pairs remain deadlock-free.
    sim::CrossShardScope xs(co_await sim::discipline::CurrentChainId{});
    // Two group locks in fingerprint order (the rmdir discipline) — the
    // rebind reads the old group's log and appends into the new group's.
    LockTable::Handle first;
    LockTable::Handle second;
    if (old_fp < new_fp) {
      first = co_await v->ShardFor(old_fp).changelog_locks.AcquireExclusive(
          FpKey(old_fp));
      if (v->dead) co_return false;
      second = co_await v->ShardFor(new_fp).changelog_locks.AcquireExclusive(
          FpKey(new_fp));
    } else {
      first = co_await v->ShardFor(new_fp).changelog_locks.AcquireExclusive(
          FpKey(new_fp));
      if (v->dead) co_return false;
      second = co_await v->ShardFor(old_fp).changelog_locks.AcquireExclusive(
          FpKey(old_fp));
    }
    if (v->dead) co_return false;

    // Per-log append mutexes, in key order: DrainInto renumbers the target
    // log and drains the source, and rename/link commit legs append to
    // either without the group locks above — the append mutex is the only
    // thing pinning their captured seqs against this renumbering.
    LockTable::Handle append_first;
    LockTable::Handle append_second;
    if (old_fp < new_fp) {
      append_first =
          co_await v->ShardFor(old_fp).changelog_append_locks.AcquireExclusive(
              ClAppendKey(old_fp, dir));
      if (v->dead) co_return false;
      // sfs-lint: allow(append-innermost, same-class pair in ClAppendKey order — deadlock-free; the rebind must hold both ends to renumber)
      append_second =
          co_await v->ShardFor(new_fp).changelog_append_locks.AcquireExclusive(
              ClAppendKey(new_fp, dir));
    } else {
      append_first =
          co_await v->ShardFor(new_fp).changelog_append_locks.AcquireExclusive(
              ClAppendKey(new_fp, dir));
      if (v->dead) co_return false;
      // sfs-lint: allow(append-innermost, same-class pair in ClAppendKey order — deadlock-free; the rebind must hold both ends to renumber)
      append_second =
          co_await v->ShardFor(old_fp).changelog_append_locks.AcquireExclusive(
              ClAppendKey(old_fp, dir));
    }
    if (v->dead) co_return false;

    auto logs = v->ShardFor(old_fp).changelogs.find(old_fp);
    if (logs == v->ShardFor(old_fp).changelogs.end()) {
      co_return false;  // already rebound (push and aggregation verdicts race)
    }
    auto lit = logs->second.find(dir);
    if (lit == logs->second.end()) {
      co_return false;
    }
    ChangeLog* from = &lit->second;  // value-stable across map rehashes
    // The prefix the old owner applied before the rename migrated with the
    // directory's entry list; re-keying it would double-count the directory
    // size at the new owner. Trim it as acknowledged.
    const size_t before = from->size();
    for (uint64_t lsn : from->AckUpTo(applied_seq)) {
      ctx_.durable->wal.MarkApplied(lsn);
    }
    const size_t trimmed = before - from->size();
    v->ShardFor(old_fp).pushers[ctx_.OwnerOf(old_fp)].ready.erase(
        {old_fp, dir});
    if (!from->empty()) {
      // Seqs are re-assigned to continue the new-fingerprint log's FIFO:
      // entries committed under the new fingerprint after clients refreshed
      // their caches already numbered from 1, and the new owner's hwm for
      // (dir, src) only knows that numbering.
      // Appended AFTER any new-era entries already pending: renumbering
      // those would let entries that already reached the new owner through
      // a channel invisible here (in-flight push, aggregation, fallback)
      // escape its seq dedup. The resulting old-era-after-new-era inversion
      // is bounded to the same-name case and to sources whose eager verdict
      // fetch (EagerRebindMoved) lost the race with a client op through the
      // new path — and it is settled at the apply: the per-name LWW stamp
      // (Aggregation::ApplyEntries) drops the stale old-era entry when it
      // arrives after the newer same-name write, so the inversion can no
      // longer materialize a phantom dirent or resurrect a deleted one.
      moved_entries = from->DrainInto(v->GetChangeLog(new_fp, dir));
    }
    // The drained slot is KEPT, numbering intact: a straggler commit that
    // raced the rename may still append under the old fingerprint, and a
    // fresh log restarting at 1 would collide with the tombstone's applied
    // marks and be trimmed as already-applied. The straggler resumes above
    // the marks and re-chains through the next verdict; the owner-side
    // resolved-prefix bridge (ApplyEntries) absorbs the seq gap.
    if (moved_entries == 0) {
      co_return trimmed > 0;  // trimming the applied prefix is progress too
    }
    if (from_aggregation) {
      ctx_.stats->agg_rebinds++;
      ctx_.stats->agg_entries_rebound += moved_entries;
    } else {
      ctx_.stats->pushes_rebound++;
      ctx_.stats->entries_rebound += moved_entries;
    }
  }
  // Re-insert the dirty bit for the new fingerprint group so reads at the
  // new owner aggregate before the re-push lands. Overflow is ignored: the
  // re-push delivers the entries regardless, so an overflow only costs
  // dirty-bit visibility until then (the insert_exhausted exposure).
  co_await ctx_.dirty_tracker->Insert(ctx_, v, new_fp, dir, nullptr, nullptr);
  if (v->dead) co_return true;
  MaybeSchedulePush(v, new_fp, dir);
  co_return true;
}

sim::Task<void> PushEngine::RebindMovedLogDetached(VolPtr v, InodeId dir,
                                                   psw::Fingerprint old_fp,
                                                   psw::Fingerprint new_fp,
                                                   uint64_t applied_seq,
                                                   bool from_aggregation) {
  co_await RebindMovedLog(v, dir, old_fp, new_fp, applied_seq,
                          from_aggregation);
}

sim::Task<void> PushEngine::EagerRebindMoved(VolPtr v, InodeId dir,
                                             psw::Fingerprint old_fp,
                                             psw::Fingerprint new_fp) {
  (void)new_fp;
  {
    auto lock = co_await v->ShardFor(old_fp).changelog_locks.AcquireExclusive(
        FpKey(old_fp));
    if (v->dead) co_return;
    auto logs = v->ShardFor(old_fp).changelogs.find(old_fp);
    if (logs == v->ShardFor(old_fp).changelogs.end()) {
      co_return;
    }
    auto lit = logs->second.find(dir);
    if (lit == logs->second.end()) {
      co_return;
    }
    if (lit->second.empty()) {
      // Nothing pending. The empty slot is kept: per-(fp, dir) numbering is
      // monotonic forever, and the owner-side resolved-prefix bridge
      // (ApplyEntries) absorbs the seq offset if the directory ever returns
      // to this fingerprint.
      co_return;
    }
    // Pending entries: do NOT rebind blindly. Entries may be applied-but-
    // unacked at the old owner through channels this server cannot see
    // (a push whose response was lost across the owner's crash, an
    // aggregation whose AggDone went missing, an insert-overflow fallback
    // in flight) — only the old owner's tombstone holds the authoritative
    // pre-rename applied marks. Fetch the verdict instead: queue the log
    // and drain toward the old owner right now. The kMoved reply performs
    // the rebind with those marks (RebindMovedLog via the trim loop), one
    // round trip from now — still ahead of any client op through the new
    // path, which needs the rename response plus at least one resolution
    // RPC first.
    v->ShardFor(old_fp).pushers[ctx_.OwnerOf(old_fp)].ready.insert(
        {old_fp, dir});
  }
  co_await DrainOwner(v, ShardIndexForFp(old_fp, v->num_shards()),
                      ctx_.OwnerOf(old_fp));
}

void PushEngine::NoteOwnerPush(VolPtr v, psw::Fingerprint fp) {
  if (!ctx_.config->async_updates) {
    return;  // synchronous mode never defers
  }
  const size_t shard = ShardIndexForFp(fp, v->num_shards());
  ServerShard& sh = v->ShardAt(shard);
  sh.last_push[fp] = ctx_.Now();
  if (!sh.quiet_sweep_armed) {
    sh.quiet_sweep_armed = true;
    sim::Spawn(QuietSweep(v, shard));
  }
}

sim::Task<void> PushEngine::QuietSweep(VolPtr v, size_t shard) {
  while (true) {
    co_await sim::Delay(ctx_.sim, ctx_.config->owner_quiet_period);
    if (v->dead) {
      // Dead incarnation: drop the sweep's state so it carries no phantom
      // deadlines (the replacement incarnation starts fresh anyway).
      v->ShardAt(shard).last_push.clear();
      v->ShardAt(shard).quiet_sweep_armed = false;
      co_return;
    }
    // Every group quiet for a full period leaves the map and joins one
    // aggregation round (§5.3): the next read finds it in normal state, and
    // the round's one collect per peer amortizes the broadcast over the set.
    std::vector<psw::Fingerprint> quiet;
    auto& last_push = v->ShardAt(shard).last_push;
    for (auto it = last_push.begin(); it != last_push.end();) {
      if (ctx_.Now() - it->second >= ctx_.config->owner_quiet_period) {
        quiet.push_back(it->first);
        it = last_push.erase(it);
      } else {
        ++it;
      }
    }
    const bool idle = last_push.empty();
    if (idle) {
      v->ShardAt(shard).quiet_sweep_armed = false;
    }
    if (!quiet.empty()) {
      sim::Spawn(agg_.GateAndAggregate(v, std::move(quiet)));
    }
    if (idle) {
      co_return;
    }
  }
}

}  // namespace switchfs::core
