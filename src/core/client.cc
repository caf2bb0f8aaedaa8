#include "src/core/client.h"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "src/common/strings.h"
#include "src/core/cache_record.h"
#include "src/core/schema.h"
#include "src/pswitch/meta_cache.h"
#include "src/sim/sync.h"
#include "src/tracker/dirty_tracker.h"

namespace switchfs::core {

FsClient::FsClient(sim::Simulator* sim, net::Network* net,
                   const ClientPlacement* placement,
                   const sim::CostModel* costs, Config config)
    : sim_(sim),
      placement_(placement),
      costs_(costs),
      config_(std::move(config)),
      rpc_(sim, net) {
  // The root is always resolvable: its inode is keyed (0, "/").
  CachedDir root;
  root.id = RootId();
  root.fp = FingerprintOf(InodeId{}, "/");
  root.mode = 0755;
  root.ancestors = {AncestorRef{RootId(), 0}};
  cache_.Put("/", root);
}

const MetaResp* FsClient::UnwrapResponse(const net::MsgPtr& msg) {
  if (msg == nullptr) {
    return nullptr;
  }
  if (msg->type == InsertEnvelope::kType) {
    const auto* env = static_cast<const InsertEnvelope*>(msg.get());
    return net::MsgAs<MetaResp>(env->client_resp);
  }
  return net::MsgAs<MetaResp>(msg);
}

bool FsClient::BounceStale(const MetaResp& resp) {
  if (resp.status != StatusCode::kStaleCache) {
    return false;
  }
  for (const InodeId& id : resp.stale_ids) {
    cache_.InvalidateId(id);
  }
  return true;
}

sim::Task<StatusOr<CachedDir>> FsClient::ResolveDir(
    const std::string& path) {
  co_await sim::Delay(sim_, costs_->cache_lookup);
  if (const CachedDir* hit = cache_.Get(path)) {
    cache_.hits++;
    co_return *hit;
  }
  cache_.misses++;
  if (path == "/") {
    co_return InternalError("root must be cached");
  }
  // Resolve the parent first (recursively through the cache), then look the
  // final component up at its owner.
  const std::string parent_path(ParentPath(path));
  auto parent = co_await ResolveDir(parent_path);
  if (!parent.ok()) {
    co_return parent.status();
  }
  const std::string name(Basename(path));
  const psw::Fingerprint fp = FingerprintOf(parent->id, name);
  auto req = std::make_shared<LookupReq>();
  req->pid = parent->id;
  req->name = name;
  req->ancestors = parent->ancestors;
  net::CallOptions opts = config_.call;
  if (config_.switch_cache) {
    opts.mc.op = net::McOp::kRead;
    opts.mc.fingerprint = fp;
  }
  auto r = co_await rpc_.Call(
      placement_->ServerNode(
          placement_->InodeServer(parent->id, name, parent_path)),
      req, opts);
  if (!r.ok()) {
    co_return r.status();
  }
  // A switch cache hit short-circuits the owner entirely: the data plane
  // answered with the packed record. Decode it BEFORE the LookupResp map —
  // MsgAs on the wrong type yields nullptr, not a crash.
  if (const auto* hit = net::MsgAs<psw::CacheHitResp>(*r)) {
    int64_t read_at = 0;
    const Attr attr = UnpackCacheRecord(hit->record, &read_at);
    if (!attr.is_dir()) {
      co_return NotADirectoryError(path);
    }
    CachedDir hit_entry;
    hit_entry.id = attr.id;
    hit_entry.fp = fp;
    hit_entry.mode = attr.mode;
    hit_entry.ancestors = parent->ancestors;
    hit_entry.ancestors.push_back(AncestorRef{hit_entry.id, read_at});
    cache_.Put(path, hit_entry);
    co_return hit_entry;
  }
  const auto* resp = net::MsgAs<LookupResp>(*r);
  if (resp == nullptr) {
    co_return InternalError("bad lookup response");
  }
  if (resp->status == StatusCode::kStaleCache) {
    for (const InodeId& id : resp->stale_ids) {
      cache_.InvalidateId(id);
    }
    co_return StaleCacheError();
  }
  if (resp->status != StatusCode::kOk) {
    co_return Status(resp->status);
  }
  if (!resp->attr.is_dir()) {
    co_return NotADirectoryError(path);
  }
  CachedDir entry;
  entry.id = resp->attr.id;
  entry.fp = fp;
  entry.mode = resp->attr.mode;
  entry.ancestors = parent->ancestors;
  entry.ancestors.push_back(AncestorRef{entry.id, resp->read_at});
  cache_.Put(path, entry);
  co_return entry;
}

sim::Task<StatusOr<PathRef>> FsClient::ResolveParent(
    const std::string& path) {
  if (!IsValidPath(path) || path == "/") {
    co_return InvalidArgumentError(path);
  }
  auto parent = co_await ResolveDir(std::string(ParentPath(path)));
  if (!parent.ok()) {
    co_return parent.status();
  }
  PathRef ref;
  ref.pid = parent->id;
  ref.parent_fp = parent->fp;
  ref.name = std::string(Basename(path));
  ref.ancestors = parent->ancestors;
  co_return ref;
}

sim::Task<FsClient::OpResult> FsClient::IssueOp(MetaCall call,
                                                const std::string& path) {
  OpResult out;
  co_await sim::Delay(sim_, costs_->client_op_cost);

  for (int attempt = 0; attempt < config_.max_op_retries; ++attempt) {
    PathRef ref;
    uint32_t server = 0;
    if (call.dir_target && placement_->DirOpsById()) {
      if (!IsValidPath(path)) {
        out.status = InvalidArgumentError(path);
        co_return out;
      }
      auto dir = co_await ResolveDir(path);
      if (!dir.ok()) {
        if (Transient(dir.status().code())) {
          co_await sim::Delay(sim_, config_.retry_backoff);
          continue;
        }
        out.status = dir.status();
        co_return out;
      }
      ref.pid = dir->id;  // (id, ""): the directory itself
      ref.ancestors = dir->ancestors;
      server = placement_->DirServer(dir->id, path);
    } else if (call.dir_target && path == "/") {
      // The root's inode is keyed (0, "/"). NOTE: assign(n, c) rather than a
      // literal assignment — GCC 12 flags the literal's inlined memcpy into
      // the coroutine frame with a spurious -Wrestrict.
      ref.pid = InodeId{};
      ref.name.assign(1, '/');
      ref.parent_fp = FingerprintOf(InodeId{}, "/");
      ref.ancestors = {AncestorRef{RootId(), 0}};
      server = placement_->InodeServer(ref.pid, ref.name, path);
    } else {
      auto resolved = co_await ResolveParent(path);
      if (!resolved.ok()) {
        if (Transient(resolved.status().code())) {
          co_await sim::Delay(sim_, config_.retry_backoff);
          continue;
        }
        out.status = resolved.status();
        co_return out;
      }
      ref = *std::move(resolved);
      server = placement_->InodeServer(ref.pid, ref.name, ParentPath(path));
    }

    auto req = std::make_shared<MetaReq>();
    req->op = call.op;
    req->ref = ref;
    req->want_entries = call.want_entries;
    req->mode = call.mode;
    req->delta = call.delta;
    placement_->StampRoute(*req, path, {});

    const psw::Fingerprint target_fp = FingerprintOf(ref.pid, ref.name);
    net::CallOptions opts =
        call.op == OpType::kOpenDir ? config_.opendir_call : config_.call;
    if (config_.switch_cache &&
        (call.op == OpType::kStat || call.op == OpType::kOpen ||
         call.op == OpType::kStatDir)) {
      opts.mc.op = net::McOp::kRead;
      opts.mc.fingerprint = target_fp;
    }
    if (call.pre_read && config_.dirty_tracker != nullptr) {
      co_await config_.dirty_tracker->ClientPreRead(rpc_, target_fp, *req,
                                                    opts);
    }

    auto r = co_await rpc_.Call(placement_->ServerNode(server), req, opts);
    if (!r.ok()) {
      co_await sim::Delay(sim_, config_.retry_backoff);
      continue;
    }
    // Switch cache hit: the data plane synthesized the reply from its way
    // registers; there is no MetaResp to unwrap.
    if (const auto* hit = net::MsgAs<psw::CacheHitResp>(*r)) {
      out.status = OkStatus();
      out.attr = UnpackCacheRecord(hit->record, nullptr);
      out.target_fp = target_fp;
      out.server = server;
      co_return out;
    }
    const MetaResp* resp = UnwrapResponse(*r);
    if (resp == nullptr) {
      out.status = InternalError("bad response");
      co_return out;
    }
    if (BounceStale(*resp)) {
      continue;
    }
    if (resp->status == StatusCode::kUnavailable) {
      co_await sim::Delay(sim_, config_.retry_backoff);
      continue;
    }
    out.status = Status(resp->status);
    out.attr = resp->attr;
    out.entries = resp->entries;
    out.dir_session = resp->dir_session;
    out.next_cookie = resp->next_cookie;
    out.at_end = resp->at_end;
    out.target_fp = target_fp;
    out.server = server;
    co_return out;
  }
  out.status = TimeoutError("op retries exhausted");
  co_return out;
}

sim::Task<FsClient::OpResult> FsClient::IssueSessionOp(OpType op,
                                                       uint32_t server,
                                                       uint64_t session,
                                                       uint64_t cookie) {
  OpResult out;
  co_await sim::Delay(sim_, costs_->client_op_cost);
  const net::NodeId dst = placement_->ServerNode(server);
  // Transport-level retries only: the session either answers or is gone.
  // kUnavailable (owner recovering) maps to kStaleHandle — the recovering
  // incarnation wiped its session table, so the stream cannot resume.
  for (int attempt = 0; attempt < config_.max_op_retries; ++attempt) {
    auto req = std::make_shared<MetaReq>();
    req->op = op;
    req->dir_session = session;
    req->cookie = cookie;
    auto r = co_await rpc_.Call(dst, req, config_.call);
    if (!r.ok()) {
      if (r.status().code() == StatusCode::kTimeout) {
        out.status = StaleHandleError("dir session unreachable");
        co_return out;
      }
      co_await sim::Delay(sim_, config_.retry_backoff);
      continue;
    }
    const MetaResp* resp = UnwrapResponse(*r);
    if (resp == nullptr) {
      out.status = InternalError("bad response");
      co_return out;
    }
    if (resp->status == StatusCode::kUnavailable) {
      out.status = StaleHandleError("owner recovering; session lost");
      co_return out;
    }
    out.status = Status(resp->status);
    out.attr = resp->attr;
    out.entries = resp->entries;
    out.next_cookie = resp->next_cookie;
    out.at_end = resp->at_end;
    co_return out;
  }
  out.status = TimeoutError("session op retries exhausted");
  co_return out;
}

sim::Task<Status> FsClient::Create(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::Mutation(OpType::kCreate), path);
  co_return r.status;
}

sim::Task<Status> FsClient::Unlink(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::Mutation(OpType::kUnlink), path);
  co_return r.status;
}

sim::Task<Status> FsClient::Mkdir(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::Mutation(OpType::kMkdir), path);
  co_return r.status;
}

sim::Task<Status> FsClient::Rmdir(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::Mutation(OpType::kRmdir), path);
  if (r.status.ok()) {
    cache_.ErasePath(path);
  }
  co_return r.status;
}

sim::Task<StatusOr<Attr>> FsClient::Stat(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::FileRead(OpType::kStat), path);
  if (!r.status.ok()) {
    co_return r.status;
  }
  co_return r.attr;
}

sim::Task<StatusOr<Attr>> FsClient::StatDir(const std::string& path) {
  OpResult r = co_await IssueOp(
      MetaCall::DirRead(OpType::kStatDir, /*want_entries=*/false), path);
  if (!r.status.ok()) {
    co_return r.status;
  }
  co_return r.attr;
}

sim::Task<StatusOr<std::vector<DirEntry>>> SwitchFsClient::ReaddirMonolithic(
    const std::string& path) {
  OpResult r = co_await IssueOp(
      MetaCall::DirRead(OpType::kReaddir, /*want_entries=*/true), path);
  if (!r.status.ok()) {
    co_return r.status;
  }
  co_return r.entries;
}

sim::Task<StatusOr<Attr>> FsClient::Open(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::FileRead(OpType::kOpen), path);
  if (!r.status.ok()) {
    co_return r.status;
  }
  co_return r.attr;
}

sim::Task<Status> FsClient::Close(const std::string& path) {
  OpResult r = co_await IssueOp(MetaCall::FileRead(OpType::kClose), path);
  co_return r.status;
}

sim::Task<Status> FsClient::SetAttr(const std::string& path,
                                    const AttrDelta& delta) {
  OpResult r = co_await IssueOp(MetaCall::AttrUpdate(delta), path);
  co_return r.status;
}

// ---------------------------------------------------------------------------
// Directory streams (MetadataService v2)
// ---------------------------------------------------------------------------

sim::Task<StatusOr<DirHandle>> FsClient::OpenDir(
    const std::string& path) {
  // OpenDir is the consistency point of the stream: the owner makes the
  // directory consistent (SwitchFS: aggregation under the agg gate, with the
  // dirty-tracker pre-read hook attached) and opens the session the pages
  // will be served from.
  MetaCall call = MetaCall::DirRead(OpType::kOpenDir, /*want_entries=*/false);
  OpResult r = co_await IssueOp(call, path);
  if (!r.status.ok()) {
    co_return r.status;
  }
  OpenDirState state;
  state.path = path;
  state.dir = r.attr.id;
  state.session = r.dir_session;
  // Pin the routing to the server the open was actually sent to: the
  // session lives there, and a re-resolution here could diverge (concurrent
  // rename/invalidation) and point every page at the wrong server.
  state.server = r.server;
  state.dir_fp = r.target_fp;
  DirHandle handle;
  handle.id = cache_.PutHandle(std::move(state));
  co_return handle;
}

sim::Task<StatusOr<DirPage>> FsClient::ReaddirPage(
    const DirHandle& handle, uint64_t cookie) {
  OpenDirState* state = cache_.GetHandle(handle.id);
  if (state == nullptr) {
    co_return InvalidArgumentError("unknown dir handle");
  }
  OpResult r = co_await IssueSessionOp(OpType::kReaddirPage, state->server,
                                       state->session, cookie);
  if (!r.status.ok()) {
    co_return r.status;
  }
  DirPage page;
  page.entries = std::move(r.entries);
  page.next_cookie = r.next_cookie;
  page.at_end = r.at_end;
  co_return page;
}

sim::Task<Status> FsClient::CloseDir(const DirHandle& handle) {
  OpenDirState* state = cache_.GetHandle(handle.id);
  if (state == nullptr) {
    co_return OkStatus();  // already closed (idempotent)
  }
  const uint32_t server = state->server;
  const uint64_t session = state->session;
  cache_.EraseHandle(handle.id);
  // Best-effort server-side release; the TTL watchdog reclaims the session
  // anyway if this notification is lost.
  OpResult r = co_await IssueSessionOp(OpType::kCloseDir, server, session,
                                       /*cookie=*/0);
  (void)r;
  co_return OkStatus();
}

sim::Task<void> SwitchFsClient::FetchPage(DirHandle handle, uint64_t cookie,
                                          std::shared_ptr<PageSlot> slot) {
  slot->result = co_await ReaddirPage(handle, cookie);
  slot->done.Set(0);
}

sim::Task<StatusOr<std::vector<DirEntry>>> SwitchFsClient::Readdir(
    const std::string& path) {
  // Pipelined drain: keep a window of page RPCs in flight with sequential
  // cookies. The owner serves page p, advances the stream state, and only
  // then pays for marshalling — so page p+1's scan overlaps page p's
  // marshal on another core, and the link is never idle between pages.
  // Speculation is safe because SwitchFS pages are served (and re-served)
  // idempotently by sequence number; a stale handle on ANY in-flight page
  // restarts the whole scan, exactly like the base implementation.
  const int window = std::max(1, config_.prefetch_pages);
  constexpr int kMaxRestarts = 4;
  for (int attempt = 0; attempt <= kMaxRestarts; ++attempt) {
    auto handle = co_await OpenDir(path);
    if (!handle.ok()) {
      co_return handle.status();
    }
    std::vector<DirEntry> all;
    std::deque<std::shared_ptr<PageSlot>> inflight;
    uint64_t next_cookie = kDirStreamStart;
    for (int i = 0; i < window; ++i) {
      auto slot = std::make_shared<PageSlot>(sim_);
      sim::Spawn(FetchPage(*handle, next_cookie++, slot));
      inflight.push_back(std::move(slot));
    }
    bool stale = false;
    Status fail = OkStatus();
    bool done = false;
    while (!done && !inflight.empty()) {
      std::shared_ptr<PageSlot> slot = inflight.front();
      inflight.pop_front();
      co_await slot->done.Wait();
      if (!slot->result.ok()) {
        if (slot->result.status().code() == StatusCode::kStaleHandle) {
          stale = true;
        } else {
          fail = slot->result.status();
        }
        break;
      }
      DirPage& page = *slot->result;
      for (DirEntry& e : page.entries) {
        all.push_back(std::move(e));
      }
      if (page.at_end) {
        done = true;
        break;
      }
      auto next = std::make_shared<PageSlot>(sim_);
      sim::Spawn(FetchPage(*handle, next_cookie++, next));
      inflight.push_back(std::move(next));
    }
    // Join the remaining speculative fetches before touching the handle:
    // past the end they resolve as cheap empty tail pages, after a failure
    // they resolve with the same verdict. Either way the handle must not be
    // closed (or the scan restarted) under them.
    while (!inflight.empty()) {
      co_await inflight.front()->done.Wait();
      inflight.pop_front();
    }
    (void)co_await CloseDir(*handle);
    if (done) {
      co_return all;
    }
    if (!stale) {
      co_return fail;
    }
  }
  co_return StaleHandleError("readdir restarts exhausted");
}

// ---------------------------------------------------------------------------
// Batched lookups (MetadataService v2)
// ---------------------------------------------------------------------------

sim::Task<std::vector<StatusOr<Attr>>> FsClient::RunBatchStat(
    std::vector<std::string> paths, OpType op, bool scattered_hint,
    net::CallOptions call) {
  std::vector<StatusOr<Attr>> results(paths.size(),
                                      StatusOr<Attr>(InternalError("not run")));
  std::vector<size_t> open;  // indices still unresolved
  open.reserve(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    open.push_back(i);
  }

  for (int attempt = 0; attempt < config_.max_op_retries && !open.empty();
       ++attempt) {
    struct Group {
      std::vector<size_t> indices;
      std::vector<PathRef> refs;
    };
    std::map<uint32_t, Group> groups;
    std::vector<size_t> still_open;
    for (size_t i : open) {
      auto ref = co_await ResolveParent(paths[i]);
      if (!ref.ok()) {
        if (Transient(ref.status().code())) {
          still_open.push_back(i);  // retry next round
          continue;
        }
        results[i] = ref.status();
        continue;
      }
      Group& g = groups[placement_->InodeServer(ref->pid, ref->name,
                                                ParentPath(paths[i]))];
      g.indices.push_back(i);
      g.refs.push_back(*std::move(ref));
    }

    for (auto& [server, group] : groups) {
      auto req = std::make_shared<MetaReq>();
      req->op = op;
      req->scattered_hint = scattered_hint;
      req->targets = std::move(group.refs);
      auto r = co_await rpc_.Call(placement_->ServerNode(server), req, call);
      if (!r.ok()) {
        for (size_t i : group.indices) {
          still_open.push_back(i);  // server unreachable: retry the group
        }
        continue;
      }
      const auto* resp = net::MsgAs<MetaResp>(*r);
      if (resp == nullptr ||
          resp->batch_status.size() != group.indices.size()) {
        for (size_t i : group.indices) {
          results[i] = InternalError("bad batch-stat response");
        }
        continue;
      }
      for (const InodeId& id : resp->stale_ids) {
        cache_.InvalidateId(id);
      }
      for (size_t k = 0; k < group.indices.size(); ++k) {
        const size_t i = group.indices[k];
        switch (resp->batch_status[k]) {
          case StatusCode::kOk:
            results[i] = resp->batch_attrs[k];
            break;
          case StatusCode::kStaleCache:
          case StatusCode::kUnavailable:
            still_open.push_back(i);  // re-resolve with the fresh cache
            break;
          default:
            results[i] = Status(resp->batch_status[k]);
            break;
        }
      }
    }
    open = std::move(still_open);
    if (!open.empty()) {
      co_await sim::Delay(sim_, config_.retry_backoff);
    }
  }
  for (size_t i : open) {
    results[i] = TimeoutError("batch-stat retries exhausted");
  }
  co_return results;
}

sim::Task<std::vector<StatusOr<Attr>>> FsClient::BatchStat(
    const std::vector<std::string>& paths) {
  co_await sim::Delay(sim_, costs_->client_op_cost);
  // Targets group by the system's inode placement — the read-path mirror
  // of the per-owner push batching. E-InfiniFS/IndexFS collapse a
  // directory's files onto one server, SwitchFS and E-CFS spread them per
  // (pid, name), CephFS routes whole subtrees.
  co_return co_await RunBatchStat(paths, OpType::kBatchStat,
                                  /*scattered_hint=*/false, config_.call);
}

sim::Task<std::vector<StatusOr<Attr>>> SwitchFsClient::BatchStatDir(
    const std::vector<std::string>& paths) {
  co_await sim::Delay(sim_, costs_->client_op_cost);
  // Directory flavor: same grouping and retry scaffolding, but the server
  // runs the per-target agg-gate dance before each stat, so every returned
  // attr reflects all updates committed before the call. A directory is
  // owned by its own (pid, name) fingerprint, so the routing is identical.
  // Gate deadline caveat: an aggregation per target can push a large batch
  // past the tight default call deadline, so reuse the OpenDir-scale one.
  co_return co_await RunBatchStat(paths, OpType::kBatchStatDir,
                                  config_.batch_stat_dir_hint,
                                  config_.opendir_call);
}

// ---------------------------------------------------------------------------
// Bulk insert (MetadataService v2)
// ---------------------------------------------------------------------------

sim::Task<void> FsClient::SendBulkChunk(
    std::string dir_path, InodeId dir, psw::Fingerprint parent_fp,
    uint32_t server, const std::vector<std::string>& names,
    std::vector<size_t> idxs, std::vector<Status>* out) {
  for (int attempt = 0; attempt < config_.max_op_retries; ++attempt) {
    // Re-resolve the directory each attempt for fresh ancestors (the
    // identity — pid and change-log fingerprint — is pinned by the handle).
    auto resolved = co_await ResolveDir(dir_path);
    if (!resolved.ok()) {
      if (Transient(resolved.status().code())) {
        co_await sim::Delay(sim_, config_.retry_backoff);
        continue;
      }
      for (size_t i : idxs) {
        (*out)[i] = resolved.status();
      }
      co_return;
    }
    auto req = std::make_shared<MetaReq>();
    req->op = OpType::kBulkInsert;
    req->ref.pid = dir;
    req->ref.parent_fp = parent_fp;
    req->ref.ancestors = resolved->ancestors;
    req->bulk_names.reserve(idxs.size());
    for (size_t i : idxs) {
      req->bulk_names.push_back(names[i]);
    }
    placement_->StampRoute(*req, dir_path, {});
    auto r =
        co_await rpc_.Call(placement_->ServerNode(server), req, config_.call);
    if (!r.ok()) {
      co_await sim::Delay(sim_, config_.retry_backoff);
      continue;
    }
    const MetaResp* resp = UnwrapResponse(*r);
    if (resp == nullptr) {
      for (size_t i : idxs) {
        (*out)[i] = InternalError("bad bulk response");
      }
      co_return;
    }
    if (BounceStale(*resp)) {
      continue;
    }
    if (resp->status == StatusCode::kUnavailable) {
      co_await sim::Delay(sim_, config_.retry_backoff);
      continue;
    }
    if (resp->status != StatusCode::kOk) {
      for (size_t i : idxs) {
        (*out)[i] = Status(resp->status);
      }
      co_return;
    }
    for (size_t k = 0; k < idxs.size(); ++k) {
      (*out)[idxs[k]] = k < resp->batch_status.size()
                            ? Status(resp->batch_status[k])
                            : InternalError("truncated bulk verdicts");
    }
    co_return;
  }
  for (size_t i : idxs) {
    (*out)[i] = TimeoutError("bulk insert retries exhausted");
  }
}

sim::Task<std::vector<Status>> FsClient::BulkInsert(
    const DirHandle& handle, const std::vector<std::string>& names) {
  co_await sim::Delay(sim_, costs_->client_op_cost);
  std::vector<Status> out(names.size(), OkStatus());
  if (names.empty()) {
    co_return out;
  }
  OpenDirState* state = cache_.GetHandle(handle.id);
  if (state == nullptr) {
    for (Status& s : out) {
      s = InvalidArgumentError("unknown dir handle");
    }
    co_return out;
  }
  // Copy the routing identity out of the handle table: the state pointer
  // must not be held across a suspension.
  const std::string dir_path = state->path;
  const InodeId dir = state->dir;
  const psw::Fingerprint parent_fp = state->dir_fp;

  // The create-path mirror of BatchStat: group names by the server placement
  // puts their inode on, then chunk each group to the transport page budget
  // — one multi-entry RPC (and one server-side WAL record) per chunk
  // instead of one round trip per name.
  std::map<uint32_t, std::vector<size_t>> by_server;
  for (size_t i = 0; i < names.size(); ++i) {
    by_server[placement_->InodeServer(dir, names[i], dir_path)].push_back(i);
  }
  for (auto& [server, idxs] : by_server) {
    size_t start = 0;
    while (start < idxs.size()) {
      size_t used = 0;
      size_t end = start;
      while (end < idxs.size() &&
             PageHasRoom(used, static_cast<int>(end - start),
                         DirEntryWireSize(names[idxs[end]]), config_.mtu_bytes,
                         config_.mtu_entries)) {
        used += DirEntryWireSize(names[idxs[end]]);
        ++end;
      }
      co_await SendBulkChunk(
          dir_path, dir, parent_fp, server, names,
          std::vector<size_t>(idxs.begin() + static_cast<ptrdiff_t>(start),
                              idxs.begin() + static_cast<ptrdiff_t>(end)),
          &out);
      start = end;
    }
  }
  co_return out;
}

sim::Task<Status> SwitchFsClient::Link(const std::string& src,
                                       const std::string& dst) {
  co_await sim::Delay(sim_, costs_->client_op_cost);
  for (int attempt = 0; attempt < config_.max_op_retries; ++attempt) {
    auto s = co_await ResolveParent(src);
    if (!s.ok()) {
      if (s.status().code() == StatusCode::kStaleCache) {
        continue;
      }
      co_return s.status();
    }
    auto d = co_await ResolveParent(dst);
    if (!d.ok()) {
      if (d.status().code() == StatusCode::kStaleCache) {
        continue;
      }
      co_return d.status();
    }
    auto req = std::make_shared<MetaReq>();
    req->op = OpType::kLink;
    req->ref = *d;
    req->ref2 = *s;
    auto r = co_await rpc_.Call(
        placement_->ServerNode(
            placement_->InodeServer(d->pid, d->name, ParentPath(dst))),
        req, config_.txn_call);
    if (!r.ok()) {
      co_await sim::Delay(sim_, config_.retry_backoff);
      continue;
    }
    const MetaResp* resp = UnwrapResponse(*r);
    if (resp == nullptr) {
      co_return InternalError("bad link response");
    }
    if (BounceStale(*resp)) {
      continue;
    }
    co_return Status(resp->status);
  }
  co_return TimeoutError("link retries exhausted");
}

sim::Task<Status> FsClient::Rename(const std::string& from,
                                   const std::string& to) {
  co_await sim::Delay(sim_, costs_->client_op_cost);
  for (int attempt = 0; attempt < config_.max_op_retries; ++attempt) {
    auto src = co_await ResolveParent(from);
    if (!src.ok()) {
      if (src.status().code() == StatusCode::kStaleCache) {
        continue;
      }
      co_return src.status();
    }
    auto dst = co_await ResolveParent(to);
    if (!dst.ok()) {
      if (dst.status().code() == StatusCode::kStaleCache) {
        continue;
      }
      co_return dst.status();
    }
    auto req = std::make_shared<MetaReq>();
    req->op = OpType::kRename;
    req->ref = *src;
    req->ref2 = *dst;
    placement_->StampRoute(*req, from, to);
    auto r = co_await rpc_.Call(
        placement_->ServerNode(config_.rename_coordinator), req,
        config_.txn_call);
    if (!r.ok()) {
      co_await sim::Delay(sim_, config_.retry_backoff);
      continue;
    }
    const MetaResp* resp = UnwrapResponse(*r);
    if (resp == nullptr) {
      co_return InternalError("bad rename response");
    }
    if (BounceStale(*resp)) {
      continue;
    }
    if (resp->status == StatusCode::kOk) {
      // The moved path (and everything cached beneath a moved directory) is
      // stale in our own cache too.
      cache_.ErasePath(from);
    }
    co_return Status(resp->status);
  }
  co_return TimeoutError("rename retries exhausted");
}

}  // namespace switchfs::core
