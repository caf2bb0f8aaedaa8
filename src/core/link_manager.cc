#include "src/core/link_manager.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/core/cache_evict.h"
#include "src/core/schema.h"
#include "src/core/wal_records.h"
#include "src/sim/discipline.h"

namespace switchfs::core {

sim::Task<Status> LinkManager::UpdateLinkCount(VolPtr v, InodeId file_id,
                                               uint32_t attr_server,
                                               int32_t delta, Attr* out,
                                               const AttrDelta& attr_delta) {
  if (attr_server == ctx_.config->index) {
    const std::string akey = AttrKey(file_id);
    // Sanctioned cross-shard handoff (hard-link split): callers hold the
    // link's inode lock on its name's shard while this acquires the shared
    // attributes object's lock on the object-id's shard. Deadlock-free
    // because attr locks are only ever taken innermost (no chain holds an
    // attr lock while waiting on a name lock).
    sim::CrossShardScope link_xs(co_await sim::discipline::CurrentChainId{});
    auto lock = co_await v->ShardForKey(akey).inode_locks.AcquireExclusive(akey);
    link_xs.Release();
    if (v->dead) co_return UnavailableError();
    co_await ctx_.cpu->Run(ctx_.costs->kv_get);
    if (v->dead) co_return UnavailableError();
    auto value = v->kv.Get(akey);
    if (!value.has_value()) {
      co_return NotFoundError("attributes object missing");
    }
    Attr attrs = Attr::Decode(*value);
    attrs.nlink = static_cast<uint32_t>(
        std::max<int64_t>(0, static_cast<int64_t>(attrs.nlink) + delta));
    const bool changed = attr_delta.ApplyTo(attrs, ctx_.Now());
    if (delta != 0 || changed) {
      OpCommitRecord rec;
      rec.op = OpType::kLink;
      rec.inode_key = akey;
      rec.inode_delete = attrs.nlink == 0;
      if (!rec.inode_delete) {
        rec.inode_value = attrs.Encode();
      }
      const sim::SimTime kv_cost =
          rec.inode_delete ? ctx_.costs->kv_delete : ctx_.costs->kv_put;
      (void)co_await CommitOpRecord(ctx_, v, std::move(rec), kv_cost);
      if (v->dead) co_return UnavailableError();
    }
    if (out != nullptr) {
      *out = attrs;
    }
    co_return OkStatus();
  }
  auto msg = std::make_shared<LinkRefUpdate>();
  msg->file_id = file_id;
  msg->delta = delta;
  msg->attr = attr_delta;
  auto r = co_await ctx_.rpc->Call(ctx_.cluster->ServerNode(attr_server), msg);
  if (v->dead) co_return UnavailableError();
  if (!r.ok()) {
    co_return r.status();
  }
  const auto* resp = net::MsgAs<LinkRefUpdateResp>(*r);
  if (resp == nullptr || resp->status != StatusCode::kOk) {
    co_return Status(resp == nullptr ? StatusCode::kInternal : resp->status);
  }
  if (out != nullptr) {
    *out = resp->attrs;
  }
  co_return OkStatus();
}

sim::Task<void> LinkManager::HandleLinkRefUpdate(net::Packet p, VolPtr v) {
  const auto* msg = static_cast<const LinkRefUpdate*>(p.body.get());
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);
  if (v->dead) co_return;
  auto resp = std::make_shared<LinkRefUpdateResp>();
  Attr attrs;
  Status s = co_await UpdateLinkCount(v, msg->file_id, ctx_.config->index,
                                      msg->delta, &attrs, msg->attr);
  if (v->dead) co_return;
  resp->status = s.ok() ? StatusCode::kOk : s.code();
  resp->nlink = attrs.nlink;
  resp->attrs = attrs;
  ctx_.rpc->Respond(p, resp);
}

sim::Task<void> LinkManager::HandleLinkConvert(net::Packet p, VolPtr v) {
  const auto* msg = static_cast<const LinkConvert*>(p.body.get());
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);
  if (v->dead) co_return;
  const std::string ikey = InodeKey(msg->pid, msg->name);
  auto resp = std::make_shared<LinkConvertResp>();
  auto lock = co_await v->ShardForKey(ikey).inode_locks.AcquireExclusive(ikey);
  if (v->dead) co_return;
  co_await ctx_.cpu->Run(ctx_.costs->kv_get);
  if (v->dead) co_return;
  auto value = v->kv.Get(ikey);
  if (!value.has_value()) {
    resp->status = StatusCode::kNotFound;
    ctx_.rpc->Respond(p, resp);
    co_return;
  }
  Attr attr = Attr::Decode(*value);
  if (attr.is_dir()) {
    resp->status = StatusCode::kIsADirectory;
    ctx_.rpc->Respond(p, resp);
    co_return;
  }
  if (attr.type == FileType::kReference) {
    // Already split: just bump the count at the attributes owner.
    lock.Release();
    Status s = co_await UpdateLinkCount(
        v, attr.id, static_cast<uint32_t>(attr.size), +1, nullptr);
    if (v->dead) co_return;
    resp->status = s.ok() ? StatusCode::kOk : s.code();
    resp->file_id = attr.id;
    resp->attr_server = static_cast<uint32_t>(attr.size);
    ctx_.rpc->Respond(p, resp);
    co_return;
  }
  // First link: split into reference + attributes object, both local (§5.5).
  // The original name's row may sit in the switch cache from when it was a
  // plain file; after the split its live attributes (nlink) move to the
  // shared object, which later updates cannot evict by this fingerprint.
  // Drop it before the rewrite commits, under the exclusive inode lock.
  co_await EvictSwitchCacheEntry(ctx_, v, FingerprintOf(msg->pid, msg->name));
  if (v->dead) co_return;
  Attr attrs = attr;
  attrs.nlink = 2;  // the original name plus the new link
  Attr ref;
  ref.id = attr.id;
  ref.type = FileType::kReference;
  ref.size = ctx_.config->index;  // attributes stay with the original owner
  // Two records, one KV charge: the second commit's covers both rows.
  {
    OpCommitRecord rec;
    rec.op = OpType::kLink;
    rec.inode_key = AttrKey(attr.id);
    rec.inode_value = attrs.Encode();
    (void)co_await CommitOpRecord(ctx_, v, std::move(rec), 0);
    if (v->dead) co_return;
  }
  {
    OpCommitRecord rec;
    rec.op = OpType::kLink;
    rec.inode_key = ikey;
    rec.inode_value = ref.Encode();
    (void)co_await CommitOpRecord(ctx_, v, std::move(rec),
                                  2 * ctx_.costs->kv_put);
    if (v->dead) co_return;
  }
  resp->status = StatusCode::kOk;
  resp->file_id = attr.id;
  resp->attr_server = ctx_.config->index;
  ctx_.rpc->Respond(p, resp);
}

sim::Task<void> LinkManager::HandleLink(net::Packet p, VolPtr v) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  ctx_.stats->ops++;
  co_await ctx_.cpu->Run(ctx_.costs->op_dispatch);
  if (v->dead) co_return;
  const PathRef& dst = req->ref;
  const PathRef& src = req->ref2;
  const std::string ikey = InodeKey(dst.pid, dst.name);
  const psw::Fingerprint pfp = dst.parent_fp;

  auto cl_lock = co_await v->ShardFor(pfp).changelog_locks.AcquireShared(
      FpKey(pfp), kClAppenders);
  if (v->dead) co_return;
  auto ino_lock =
      co_await v->ShardForKey(ikey).inode_locks.AcquireExclusive(ikey);
  if (v->dead) co_return;
  co_await ctx_.cpu->Run(ctx_.costs->path_check *
                         static_cast<sim::SimTime>(1 + dst.ancestors.size()));
  if (v->dead) co_return;
  auto stale = v->inval.Check(dst.ancestors);
  if (!stale.empty()) {
    ctx_.stats->stale_cache_bounces++;
    ctx_.RespondStale(p, std::move(stale));
    co_return;
  }
  co_await ctx_.cpu->Run(ctx_.costs->kv_get);
  if (v->dead) co_return;
  if (v->kv.Contains(ikey)) {
    ctx_.RespondStatus(p, StatusCode::kAlreadyExists);
    co_return;
  }

  // Split / bump at the source's owner (two-phase across servers).
  auto convert = std::make_shared<LinkConvert>();
  convert->pid = src.pid;
  convert->name = src.name;
  const psw::Fingerprint sfp = FingerprintOf(src.pid, src.name);
  auto r = co_await ctx_.rpc->Call(
      ctx_.cluster->ServerNode(ctx_.OwnerOf(sfp)), convert);
  if (v->dead) co_return;
  if (!r.ok()) {
    ctx_.RespondStatus(p, StatusCode::kUnavailable);
    co_return;
  }
  const auto* conv = net::MsgAs<LinkConvertResp>(*r);
  if (conv == nullptr || conv->status != StatusCode::kOk) {
    ctx_.RespondStatus(
        p, conv == nullptr ? StatusCode::kInternal : conv->status);
    co_return;
  }

  Attr ref;
  ref.id = conv->file_id;
  ref.type = FileType::kReference;
  ref.size = conv->attr_server;

  {
    OpCommitRecord rec;
    rec.op = OpType::kLink;
    rec.inode_key = ikey;
    rec.inode_value = ref.Encode();
    rec.parent_dir = dst.pid;
    rec.parent_fp = pfp;
    rec.entry.timestamp = ctx_.Now();
    rec.entry.op = OpType::kCreate;
    rec.entry.name = dst.name;
    rec.entry.entry_type = FileType::kFile;
    rec.entry.size_delta = 1;
    rec.has_entry = true;
    (void)co_await CommitOpRecord(ctx_, v, std::move(rec),
                                  ctx_.costs->kv_put);
    if (v->dead) co_return;
  }

  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->attr = ref;
  co_await publisher_.PublishUpdate(&p, v, pfp, dst.pid, resp);
  if (v->dead) co_return;
  push_.MaybeSchedulePush(v, pfp, dst.pid);
}

}  // namespace switchfs::core
