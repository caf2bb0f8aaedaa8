#include "src/baselines/baseline.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

#include "src/common/strings.h"
#include "src/core/keys.h"
#include "src/sim/task.h"

namespace switchfs::baselines {

using core::AncestorRef;
using core::Attr;
using core::CachedDir;
using core::DirEntry;
using core::EntryKey;
using core::EntryPrefix;
using core::FileType;
using core::InodeId;
using core::InodeKey;
using core::LookupReq;
using core::LookupResp;
using core::MetaReq;
using core::MetaResp;
using core::OpType;
using core::PathRef;
using core::RenameCommit;
using core::RenamePrepare;
using core::RenamePrepareResp;
using core::ContentKey;
using core::RootId;

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kEInfiniFS:
      return "Emulated-InfiniFS";
    case SystemKind::kECfs:
      return "Emulated-CFS";
    case SystemKind::kCephFS:
      return "CephFS-sim";
    case SystemKind::kIndexFS:
      return "IndexFS-sim";
  }
  return "unknown";
}

uint32_t BaselinePlacement::FileServer(const InodeId& pid,
                                       const std::string& name,
                                       const std::string& top) const {
  switch (kind_) {
    case SystemKind::kEInfiniFS:
    case SystemKind::kIndexFS:
      return ring_->Owner(psw::FingerprintFromHash(pid.Hash64()));
    case SystemKind::kECfs:
      return ring_->Owner(core::FingerprintOf(pid, name));
    case SystemKind::kCephFS:
      // A top-level entry's `top` is its own name.
      return ring_->Owner(psw::FingerprintFromHash(
          HashString(pid == RootId() ? top : SubtreeKey(top))));
  }
  return 0;
}

uint32_t BaselinePlacement::DirServer(const InodeId& dir_id,
                                      const std::string& top) const {
  if (kind_ == SystemKind::kCephFS) {
    return ring_->Owner(psw::FingerprintFromHash(HashString(SubtreeKey(top))));
  }
  return ring_->Owner(psw::FingerprintFromHash(dir_id.Hash64()));
}

const std::string& BaselinePlacement::SubtreeKey(const std::string& top) const {
  auto it = top_alias_.find(top);
  return it == top_alias_.end() ? top : it->second;
}

void BaselinePlacement::MoveSubtree(const std::string& from_top,
                                    const std::string& to) {
  if (kind_ != SystemKind::kCephFS) {
    return;
  }
  const std::string placed = SubtreeKey(from_top);
  if (placed == to) {
    top_alias_.erase(to);
  } else {
    top_alias_[to] = placed;
  }
}

// ---------------------------------------------------------------------------
// BaselineServer
// ---------------------------------------------------------------------------

BaselineServer::BaselineServer(sim::Simulator* sim, net::Network* net,
                               BaselineCluster* cluster,
                               const sim::CostModel* costs,
                               const BaselineConfig& config, uint32_t index)
    : sim_(sim),
      cluster_(cluster),
      costs_(costs),
      config_(config),
      index_(index),
      cpu_(sim, config.cores_per_server),
      rpc_(sim, net),
      locks_(sim),
      dir_sessions_(0),
      journal_mu_(sim) {
  rpc_.SetCpu(&cpu_);
  rpc_.SetRequestHandler([this](net::Packet p) { OnRequest(std::move(p)); });
  rpc_.SetRawHandler([this](net::Packet p) {
    if (p.body != nullptr && p.body->type == core::InvalBroadcast::kType) {
      inval_.Add(static_cast<const core::InvalBroadcast*>(p.body.get())->id,
                 sim_->Now());
    }
  });
}

void BaselineServer::SeedRoot() {
  const BaselinePlacement& placement = cluster_->placement();
  Attr root;
  root.id = RootId();
  root.type = FileType::kDirectory;
  root.mode = 0755;
  if (placement.FileServer(InodeId{}, "/", "/") == index_) {
    kv_.Put(InodeKey(InodeId{}, "/"), root.Encode());
  }
  if (placement.DirServer(RootId(), "/") == index_) {
    kv_.Put(ContentKey(RootId()), root.Encode());
  }
}

void BaselineServer::PreloadInode(const std::string& key, const Attr& attr) {
  kv_.Put(key, attr.Encode());
}

void BaselineServer::PreloadEntry(const InodeId& dir, const std::string& name,
                                  FileType t) {
  kv_.Put(EntryKey(dir, name), core::EncodeEntryValue(t));
}

sim::SimTime BaselineServer::ReadOverhead() const {
  switch (config_.kind) {
    case SystemKind::kCephFS:
      return costs_->ceph_op_overhead;
    case SystemKind::kIndexFS:
      return costs_->indexfs_lease_check;
    default:
      return 0;
  }
}

sim::SimTime BaselineServer::UpdateOverhead() const {
  switch (config_.kind) {
    case SystemKind::kCephFS:
      return costs_->ceph_op_overhead;
    case SystemKind::kIndexFS:
      return costs_->indexfs_lease_check;
    default:
      return 0;
  }
}

void BaselineServer::RespondStatus(const net::Packet& p, StatusCode code) {
  rpc_.Respond(p, net::MakeMsg<MetaResp>(code));
}

void BaselineServer::OnRequest(net::Packet p) {
  if (p.body == nullptr) {
    return;
  }
  switch (p.body->type) {
    case MetaReq::kType:
      sim::Spawn(HandleMeta(std::move(p)));
      break;
    case LookupReq::kType:
      sim::Spawn(HandleLookup(std::move(p)));
      break;
    case DirUpdateReq::kType:
      sim::Spawn(HandleDirUpdate(std::move(p)));
      break;
    case DirContentReq::kType:
      sim::Spawn(HandleDirContent(std::move(p)));
      break;
    case RenamePrepare::kType:
      sim::Spawn(HandleRenamePrepare(std::move(p)));
      break;
    case RenameCommit::kType:
      sim::Spawn(HandleRenameCommit(std::move(p)));
      break;
    default:
      break;
  }
}

sim::Task<void> BaselineServer::HandleMeta(net::Packet p) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  ops_++;
  co_await cpu_.Run(costs_->op_dispatch);
  switch (req->op) {
    case OpType::kCreate:
    case OpType::kMkdir:
    case OpType::kUnlink:
      co_await DoUpsert(p, *req);
      break;
    case OpType::kRmdir:
      co_await DoRmdir(p, *req);
      break;
    case OpType::kStat:
    case OpType::kOpen:
    case OpType::kClose:
    case OpType::kChmod:
    case OpType::kStatDir:
    case OpType::kReaddir:
      co_await DoRead(p, *req);
      break;
    case OpType::kOpenDir:
      co_await DoOpenDir(p, *req);
      break;
    case OpType::kReaddirPage:
      co_await DoReaddirPage(p, *req);
      break;
    case OpType::kCloseDir:
      co_await DoCloseDir(p, *req);
      break;
    case OpType::kBatchStat:
      co_await DoBatchStat(p, *req);
      break;
    case OpType::kSetAttr:
      co_await DoSetAttr(p, *req);
      break;
    case OpType::kBulkInsert:
      co_await DoBulkInsert(p, *req);
      break;
    case OpType::kRename:
      co_await HandleRename(std::move(p));
      break;
    default:
      RespondStatus(p, StatusCode::kInvalidArgument);
      break;
  }
}

sim::Task<Status> BaselineServer::ApplyDirUpdateLocal(
    const InodeId& dir, const std::string& name, FileType type, bool remove,
    int64_t timestamp) {
  // The serialized read-modify-write of directory attrs + entry list under
  // the directory lock: Challenge #2's contention point.
  auto lock = co_await locks_.AcquireExclusive(ContentKey(dir));
  if (config_.kind == SystemKind::kCephFS) {
    // The MDS journal additionally serializes update commits per server.
    auto jguard = co_await journal_mu_.Acquire();
    co_await cpu_.Run(costs_->ceph_journal);
  }
  co_await cpu_.Run(costs_->dir_update_cpu);
  co_await sim::Delay(sim_,
                      costs_->dir_update_critical - costs_->dir_update_cpu);
  auto value = kv_.Get(ContentKey(dir));
  if (!value.has_value()) {
    co_return NotFoundError("directory content missing");
  }
  Attr attr = Attr::Decode(*value);
  const std::string ekey = EntryKey(dir, name);
  if (remove) {
    kv_.Delete(ekey);
    if (attr.size > 0) {
      attr.size--;
    }
  } else {
    kv_.Put(ekey, core::EncodeEntryValue(type));
    attr.size++;
  }
  attr.mtime = std::max(attr.mtime, timestamp);
  kv_.Put(ContentKey(dir), attr.Encode());
  co_return OkStatus();
}

sim::Task<Status> BaselineServer::DirUpdate(const InodeId& dir,
                                            const std::string& top,
                                            const std::string& name,
                                            FileType type, bool remove) {
  const uint32_t home = cluster_->placement().DirServer(dir, top);
  if (home == index_) {
    co_return co_await ApplyDirUpdateLocal(dir, name, type, remove,
                                           sim_->Now());
  }
  auto msg = std::make_shared<DirUpdateReq>();
  msg->dir = dir;
  msg->name = name;
  msg->entry_type = type;
  msg->remove = remove;
  msg->timestamp = sim_->Now();
  net::CallOptions opts;
  opts.timeout = sim::Milliseconds(200);
  opts.max_attempts = 4;
  auto r = co_await rpc_.Call(cluster_->ServerNode(home), msg, opts);
  if (!r.ok()) {
    co_return r.status();
  }
  const auto* resp = net::MsgAs<DirUpdateResp>(*r);
  co_return resp != nullptr && resp->status == StatusCode::kOk
      ? OkStatus()
      : Status(resp == nullptr ? StatusCode::kInternal : resp->status);
}

sim::Task<void> BaselineServer::HandleDirUpdate(net::Packet p) {
  const auto* msg = static_cast<const DirUpdateReq*>(p.body.get());
  // Cross-server directory updates run as distributed-transaction legs.
  co_await cpu_.Run(costs_->op_dispatch + costs_->wal_append +
                    costs_->txn_prepare + costs_->txn_commit);
  wal_.Append(1, msg->name);
  Status s = co_await ApplyDirUpdateLocal(msg->dir, msg->name, msg->entry_type,
                                          msg->remove, msg->timestamp);
  auto resp = std::make_shared<DirUpdateResp>();
  resp->status = s.ok() ? StatusCode::kOk : s.code();
  rpc_.Respond(p, resp);
}

sim::Task<void> BaselineServer::HandleDirContent(net::Packet p) {
  const auto* msg = static_cast<const DirContentReq*>(p.body.get());
  co_await cpu_.Run(costs_->op_dispatch);
  auto resp = std::make_shared<DirContentResp>();
  if (msg->kind == DirContentReq::Kind::kInit) {
    auto lock = co_await locks_.AcquireExclusive(ContentKey(msg->dir));
    co_await cpu_.Run(costs_->kv_put + costs_->txn_commit);
    Attr attr;
    attr.id = msg->dir;
    attr.type = FileType::kDirectory;
    attr.mode = 0755;
    attr.ctime = attr.mtime = sim_->Now();
    kv_.Put(ContentKey(msg->dir), attr.Encode());
    resp->status = StatusCode::kOk;
  } else {
    auto lock = co_await locks_.AcquireExclusive(ContentKey(msg->dir));
    co_await cpu_.Run(costs_->kv_get);
    const size_t entries = kv_.CountPrefix(EntryPrefix(msg->dir));
    if (entries > 0) {
      resp->status = StatusCode::kNotEmpty;
    } else {
      co_await cpu_.Run(costs_->kv_delete);
      kv_.Delete(ContentKey(msg->dir));
      resp->status = StatusCode::kOk;
    }
  }
  rpc_.Respond(p, resp);
}

sim::Task<void> BaselineServer::DoUpsert(net::Packet p, const MetaReq& req) {
  const PathRef& ref = req.ref;
  const std::string top = req.top;  // top-level component (CephFS)
  // The parent directory's own subtree: the root belongs to "/", everything
  // else shares the target's top-level component.
  const std::string parent_top = ref.pid == RootId() ? "/" : top;
  const std::string ikey = InodeKey(ref.pid, ref.name);

  co_await cpu_.Run(UpdateOverhead());
  auto ino_lock = co_await locks_.AcquireExclusive(ikey);

  co_await cpu_.Run(costs_->path_check *
                    static_cast<sim::SimTime>(1 + ref.ancestors.size()));
  auto stale = inval_.Check(ref.ancestors);
  if (!stale.empty()) {
    auto resp = std::make_shared<MetaResp>(StatusCode::kStaleCache);
    resp->stale_ids = std::move(stale);
    rpc_.Respond(p, resp);
    co_return;
  }
  co_await cpu_.Run(costs_->kv_get);
  auto existing = kv_.Get(ikey);

  Attr attr;
  switch (req.op) {
    case OpType::kCreate:
    case OpType::kMkdir: {
      if (existing.has_value()) {
        RespondStatus(p, StatusCode::kAlreadyExists);
        co_return;
      }
      attr.id.w[0] = (static_cast<uint64_t>(index_) << 48) | id_counter_++;
      attr.id.w[1] = Mix64(attr.id.w[0]);
      attr.id.w[3] = 5;
      attr.type = req.op == OpType::kMkdir ? FileType::kDirectory
                                           : FileType::kFile;
      attr.mode = req.mode;
      attr.ctime = attr.mtime = attr.atime = sim_->Now();
      break;
    }
    case OpType::kUnlink: {
      if (!existing.has_value()) {
        RespondStatus(p, StatusCode::kNotFound);
        co_return;
      }
      attr = Attr::Decode(*existing);
      if (attr.is_dir()) {
        RespondStatus(p, StatusCode::kIsADirectory);
        co_return;
      }
      break;
    }
    default:
      RespondStatus(p, StatusCode::kInvalidArgument);
      co_return;
  }

  // WAL commit + inode mutation.
  co_await cpu_.Run(costs_->wal_append);
  wal_.Append(1, ikey);
  co_await cpu_.Run(req.op == OpType::kUnlink ? costs_->kv_delete
                                              : costs_->kv_put);
  if (req.op == OpType::kUnlink) {
    kv_.Delete(ikey);
  } else {
    kv_.Put(ikey, attr.Encode());
  }

  // Synchronous parent-directory update (the defining property of the
  // baselines: visibility requires the update on the read path *now*).
  Status dir_status = co_await DirUpdate(ref.pid, parent_top, ref.name,
                                         attr.type, req.op == OpType::kUnlink);
  if (!dir_status.ok()) {
    RespondStatus(p, dir_status.code());
    co_return;
  }

  // mkdir: initialize the directory's content record at its home server.
  if (req.op == OpType::kMkdir) {
    const uint32_t home = cluster_->placement().DirServer(attr.id, top);
    if (home == index_) {
      Attr content = attr;
      co_await cpu_.Run(costs_->kv_put);
      kv_.Put(ContentKey(attr.id), content.Encode());
    } else {
      auto msg = std::make_shared<DirContentReq>();
      msg->kind = DirContentReq::Kind::kInit;
      msg->dir = attr.id;
      co_await cpu_.Run(costs_->txn_prepare);
      auto r = co_await rpc_.Call(cluster_->ServerNode(home), msg);
      (void)r;
    }
  }

  co_await cpu_.Run(costs_->reply_build);
  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->attr = attr;
  rpc_.Respond(p, resp);
}

sim::Task<void> BaselineServer::DoRmdir(net::Packet p, const MetaReq& req) {
  const PathRef& ref = req.ref;
  const std::string top = req.top;
  const std::string parent_top = ref.pid == RootId() ? "/" : top;
  const std::string ikey = InodeKey(ref.pid, ref.name);

  co_await cpu_.Run(UpdateOverhead());
  auto ino_lock = co_await locks_.AcquireExclusive(ikey);
  co_await cpu_.Run(costs_->path_check *
                    static_cast<sim::SimTime>(1 + ref.ancestors.size()));
  auto stale = inval_.Check(ref.ancestors);
  if (!stale.empty()) {
    auto resp = std::make_shared<MetaResp>(StatusCode::kStaleCache);
    resp->stale_ids = std::move(stale);
    rpc_.Respond(p, resp);
    co_return;
  }
  co_await cpu_.Run(costs_->kv_get);
  auto existing = kv_.Get(ikey);
  if (!existing.has_value()) {
    RespondStatus(p, StatusCode::kNotFound);
    co_return;
  }
  Attr attr = Attr::Decode(*existing);
  if (!attr.is_dir()) {
    RespondStatus(p, StatusCode::kNotADirectory);
    co_return;
  }

  // Check emptiness and drop the content record at the dir's home server.
  const uint32_t home = cluster_->placement().DirServer(attr.id, top);
  StatusCode content_status = StatusCode::kOk;
  if (home == index_) {
    auto lock = co_await locks_.AcquireExclusive(ContentKey(attr.id));
    co_await cpu_.Run(costs_->kv_get);
    if (kv_.CountPrefix(EntryPrefix(attr.id)) > 0) {
      content_status = StatusCode::kNotEmpty;
    } else {
      co_await cpu_.Run(costs_->kv_delete);
      kv_.Delete(ContentKey(attr.id));
    }
  } else {
    auto msg = std::make_shared<DirContentReq>();
    msg->kind = DirContentReq::Kind::kCheckEmptyAndDrop;
    msg->dir = attr.id;
    auto r = co_await rpc_.Call(cluster_->ServerNode(home), msg);
    if (!r.ok()) {
      RespondStatus(p, StatusCode::kUnavailable);
      co_return;
    }
    const auto* resp = net::MsgAs<DirContentResp>(*r);
    content_status =
        resp == nullptr ? StatusCode::kInternal : resp->status;
  }
  if (content_status != StatusCode::kOk) {
    RespondStatus(p, content_status);
    co_return;
  }

  co_await cpu_.Run(costs_->wal_append + costs_->kv_delete);
  wal_.Append(1, ikey);
  kv_.Delete(ikey);

  Status dir_status = co_await DirUpdate(ref.pid, parent_top, ref.name,
                                         FileType::kDirectory, true);
  (void)dir_status;

  // Lazy invalidation of client caches (E-InfiniFS style).
  if (config_.kind != SystemKind::kCephFS) {
    inval_.Add(attr.id, sim_->Now());
    auto bcast = std::make_shared<core::InvalBroadcast>();
    bcast->id = attr.id;
    net::Packet mc;
    mc.dst = net::kServerMulticast;
    mc.ds.origin = node_id();
    mc.body = bcast;
    rpc_.Send(std::move(mc));
  }

  RespondStatus(p, StatusCode::kOk);
}

sim::Task<void> BaselineServer::DoRead(net::Packet p, const MetaReq& req) {
  const PathRef& ref = req.ref;
  const bool dir_read =
      req.op == OpType::kStatDir || req.op == OpType::kReaddir;

  co_await cpu_.Run(ReadOverhead());
  if (req.op == OpType::kClose) {
    co_await cpu_.Run(costs_->reply_build);
    RespondStatus(p, StatusCode::kOk);
    co_return;
  }

  co_await cpu_.Run(costs_->path_check *
                    static_cast<sim::SimTime>(1 + ref.ancestors.size()));
  auto stale = inval_.Check(ref.ancestors);
  if (!stale.empty()) {
    auto resp = std::make_shared<MetaResp>(StatusCode::kStaleCache);
    resp->stale_ids = std::move(stale);
    rpc_.Respond(p, resp);
    co_return;
  }

  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  if (dir_read) {
    // Directory content lives here (home server); ref.pid carries the dir id
    // (the client resolves the directory itself, not its parent).
    const InodeId dir = ref.pid;
    auto lock = co_await locks_.AcquireShared(ContentKey(dir));
    co_await cpu_.Run(costs_->kv_get);
    auto value = kv_.Get(ContentKey(dir));
    if (!value.has_value()) {
      RespondStatus(p, StatusCode::kNotFound);
      co_return;
    }
    resp->attr = Attr::Decode(*value);
    if (req.op == OpType::kReaddir && req.want_entries) {
      size_t n = 0;
      kv_.ScanPrefix(EntryPrefix(dir),
                     [&](const std::string& k, const std::string& val) {
                       resp->entries.push_back(
                           DirEntry{std::string(core::EntryNameFromKey(k)),
                                    core::DecodeEntryValue(val)});
                       ++n;
                       return true;
                     });
      co_await cpu_.Run(static_cast<sim::SimTime>(n) *
                        (costs_->kv_scan_per_entry + costs_->readdir_per_entry));
    }
  } else {
    const std::string ikey = InodeKey(ref.pid, ref.name);
    auto lock = co_await locks_.AcquireShared(ikey);
    co_await cpu_.Run(costs_->kv_get);
    auto value = kv_.Get(ikey);
    if (!value.has_value()) {
      RespondStatus(p, StatusCode::kNotFound);
      co_return;
    }
    resp->attr = Attr::Decode(*value);
    if (req.op == OpType::kChmod) {
      resp->attr.mode = req.mode;
      co_await cpu_.Run(costs_->kv_put);
      kv_.Put(ikey, resp->attr.Encode());
    }
  }
  co_await cpu_.Run(costs_->reply_build);
  rpc_.Respond(p, resp);
}

// ---------------------------------------------------------------------------
// MetadataService v2: directory streams, batched lookups, attr deltas
// ---------------------------------------------------------------------------

sim::Task<void> BaselineServer::DoOpenDir(net::Packet p, const MetaReq& req) {
  const PathRef& ref = req.ref;
  co_await cpu_.Run(ReadOverhead());
  co_await cpu_.Run(costs_->path_check *
                    static_cast<sim::SimTime>(1 + ref.ancestors.size()));
  auto stale = inval_.Check(ref.ancestors);
  if (!stale.empty()) {
    auto resp = std::make_shared<MetaResp>(StatusCode::kStaleCache);
    resp->stale_ids = std::move(stale);
    rpc_.Respond(p, resp);
    co_return;
  }
  // Directory content lives here (home server); ref.pid carries the dir id
  // (the client resolves the directory itself, as for statdir/readdir).
  const InodeId dir = ref.pid;
  auto lock = co_await locks_.AcquireShared(core::ContentKey(dir));
  co_await cpu_.Run(costs_->kv_get);
  auto value = kv_.Get(core::ContentKey(dir));
  if (!value.has_value()) {
    RespondStatus(p, StatusCode::kNotFound);
    co_return;
  }
  Attr attr = Attr::Decode(*value);

  // Snapshot under the content lock: the stream's one scan (pages pay only
  // their own marshalling, exactly as on SwitchFS).
  std::vector<DirEntry> entries;
  kv_.ScanPrefix(EntryPrefix(dir),
                 [&](const std::string& k, const std::string& val) {
                   entries.push_back(
                       DirEntry{std::string(core::EntryNameFromKey(k)),
                                core::DecodeEntryValue(val)});
                   return true;
                 });
  co_await cpu_.Run(static_cast<sim::SimTime>(entries.size()) *
                    costs_->kv_scan_per_entry);
  core::DirSession& session =
      dir_sessions_.Open(dir, std::move(entries), sim_->Now());
  sim::Spawn(DirSessionWatchdog(session.id));

  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->attr = attr;
  resp->dir_session = session.id;
  resp->dir_entries = session.entries.size();
  co_await cpu_.Run(costs_->reply_build);
  rpc_.Respond(p, resp);
}

sim::Task<void> BaselineServer::DirSessionWatchdog(uint64_t session_id) {
  while (true) {
    co_await sim::Delay(sim_, config_.dir_session_ttl);
    if (dir_sessions_.ExpireIfIdle(session_id, sim_->Now(),
                                   config_.dir_session_ttl)) {
      co_return;
    }
  }
}

sim::Task<void> BaselineServer::DoReaddirPage(net::Packet p,
                                              const MetaReq& req) {
  co_await cpu_.Run(ReadOverhead());
  core::DirSession* session = dir_sessions_.Touch(req.dir_session, sim_->Now(),
                                                  config_.dir_session_ttl);
  if (session == nullptr) {
    RespondStatus(p, StatusCode::kStaleHandle);
    co_return;
  }
  // Build before suspending: the watchdog may expire the session mid-await.
  core::DirPage page = core::DirSessionTable::PageOf(
      *session, req.cookie, config_.mtu_entries, config_.mtu_bytes);
  co_await cpu_.Run(static_cast<sim::SimTime>(page.entries.size()) *
                        costs_->readdir_per_entry +
                    costs_->reply_build);
  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->entries = std::move(page.entries);
  resp->next_cookie = page.next_cookie;
  resp->at_end = page.at_end;
  rpc_.Respond(p, resp);
}

sim::Task<void> BaselineServer::DoCloseDir(net::Packet p, const MetaReq& req) {
  co_await cpu_.Run(costs_->reply_build);
  dir_sessions_.Close(req.dir_session);
  RespondStatus(p, StatusCode::kOk);
}

sim::Task<void> BaselineServer::DoBatchStat(net::Packet p, const MetaReq& req) {
  co_await cpu_.Run(ReadOverhead());
  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->batch_status.reserve(req.targets.size());
  resp->batch_attrs.resize(req.targets.size());
  for (size_t i = 0; i < req.targets.size(); ++i) {
    const PathRef& ref = req.targets[i];
    const std::string ikey = InodeKey(ref.pid, ref.name);
    auto lock = co_await locks_.AcquireShared(ikey);
    co_await cpu_.Run(costs_->path_check *
                      static_cast<sim::SimTime>(1 + ref.ancestors.size()));
    auto stale = inval_.Check(ref.ancestors);
    if (!stale.empty()) {
      for (core::InodeId& id : stale) {
        resp->stale_ids.push_back(id);
      }
      resp->batch_status.push_back(StatusCode::kStaleCache);
      continue;
    }
    co_await cpu_.Run(costs_->kv_get);
    auto value = kv_.Get(ikey);
    if (!value.has_value()) {
      resp->batch_status.push_back(StatusCode::kNotFound);
      continue;
    }
    resp->batch_attrs[i] = Attr::Decode(*value);
    resp->batch_status.push_back(StatusCode::kOk);
  }
  co_await cpu_.Run(costs_->reply_build);
  rpc_.Respond(p, resp);
}

sim::Task<void> BaselineServer::DoSetAttr(net::Packet p, const MetaReq& req) {
  const PathRef& ref = req.ref;
  co_await cpu_.Run(UpdateOverhead());
  const std::string ikey = InodeKey(ref.pid, ref.name);
  auto lock = co_await locks_.AcquireExclusive(ikey);
  co_await cpu_.Run(costs_->path_check *
                    static_cast<sim::SimTime>(1 + ref.ancestors.size()));
  auto stale = inval_.Check(ref.ancestors);
  if (!stale.empty()) {
    auto resp = std::make_shared<MetaResp>(StatusCode::kStaleCache);
    resp->stale_ids = std::move(stale);
    rpc_.Respond(p, resp);
    co_return;
  }
  co_await cpu_.Run(costs_->kv_get);
  auto value = kv_.Get(ikey);
  if (!value.has_value()) {
    RespondStatus(p, StatusCode::kNotFound);
    co_return;
  }
  Attr attr = Attr::Decode(*value);
  if (req.delta.ApplyTo(attr, sim_->Now())) {
    // WAL-backed like the other synchronous mutations. (The identity row is
    // authoritative for path resolution; the emulated systems keep the
    // directory content row's mode in sync only lazily, a simplification
    // shared with the pre-v2 chmod path.)
    co_await cpu_.Run(costs_->wal_append + costs_->kv_put);
    wal_.Append(1, ikey);
    kv_.Put(ikey, attr.Encode());
    if (attr.is_dir() && req.delta.set_mode &&
        config_.kind != SystemKind::kCephFS) {
      inval_.Add(attr.id, sim_->Now());
      auto bcast = std::make_shared<core::InvalBroadcast>();
      bcast->id = attr.id;
      net::Packet mc;
      mc.dst = net::kServerMulticast;
      mc.ds.origin = node_id();
      mc.body = bcast;
      rpc_.Send(std::move(mc));
    }
  }
  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->attr = attr;
  co_await cpu_.Run(costs_->reply_build);
  rpc_.Respond(p, resp);
}

sim::Task<void> BaselineServer::DoBulkInsert(net::Packet p,
                                             const MetaReq& req) {
  const PathRef& ref = req.ref;  // the shared parent; names in bulk_names
  const std::string top = req.top;
  const std::string parent_top = ref.pid == RootId() ? "/" : top;
  co_await cpu_.Run(UpdateOverhead());

  // Per-entry inode locks in name order, held through the batch.
  std::vector<size_t> order(req.bulk_names.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return req.bulk_names[a] < req.bulk_names[b];
  });
  std::vector<core::LockTable::Handle> ino_locks;
  ino_locks.reserve(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    const std::string& name = req.bulk_names[order[k]];
    if (k > 0 && name == req.bulk_names[order[k - 1]]) {
      continue;
    }
    ino_locks.push_back(
        co_await locks_.AcquireExclusive(InodeKey(ref.pid, name)));
  }

  co_await cpu_.Run(costs_->path_check *
                    static_cast<sim::SimTime>(1 + ref.ancestors.size()));
  auto stale = inval_.Check(ref.ancestors);
  if (!stale.empty()) {
    auto resp = std::make_shared<MetaResp>(StatusCode::kStaleCache);
    resp->stale_ids = std::move(stale);
    rpc_.Respond(p, resp);
    co_return;
  }

  auto resp = std::make_shared<MetaResp>(StatusCode::kOk);
  resp->batch_status.assign(req.bulk_names.size(), StatusCode::kOk);
  resp->batch_attrs.resize(req.bulk_names.size());
  std::set<std::string> admitted;
  std::vector<size_t> admitted_idx;
  for (size_t i = 0; i < req.bulk_names.size(); ++i) {
    const std::string& name = req.bulk_names[i];
    co_await cpu_.Run(costs_->kv_get);
    if (kv_.Get(InodeKey(ref.pid, name)).has_value() ||
        !admitted.insert(name).second) {
      resp->batch_status[i] = StatusCode::kAlreadyExists;
      continue;
    }
    admitted_idx.push_back(i);
  }
  if (admitted_idx.empty()) {
    co_await cpu_.Run(costs_->reply_build);
    rpc_.Respond(p, resp);
    co_return;
  }

  // One WAL append covers the batch (first entry pays the full append, the
  // rest the batched marginal cost); the inode rows commit individually.
  co_await cpu_.Run(costs_->wal_append +
                    static_cast<sim::SimTime>(admitted_idx.size() - 1) *
                        costs_->wal_append_batched);
  wal_.Append(1, "bulk");
  for (size_t i : admitted_idx) {
    const std::string& name = req.bulk_names[i];
    Attr attr;
    attr.id.w[0] = (static_cast<uint64_t>(index_) << 48) | id_counter_++;
    attr.id.w[1] = Mix64(attr.id.w[0]);
    attr.id.w[3] = 5;
    attr.type = FileType::kFile;
    attr.mode = req.mode;
    attr.ctime = attr.mtime = attr.atime = sim_->Now();
    co_await cpu_.Run(costs_->kv_put);
    kv_.Put(InodeKey(ref.pid, name), attr.Encode());
    resp->batch_attrs[i] = attr;
    // Synchronous parent update per entry — the defining property of the
    // baselines (no deferred path to batch the visibility through).
    Status dir_status =
        co_await DirUpdate(ref.pid, parent_top, name, FileType::kFile,
                           /*remove=*/false);
    if (!dir_status.ok()) {
      resp->batch_status[i] = dir_status.code();
    }
  }
  co_await cpu_.Run(costs_->reply_build);
  rpc_.Respond(p, resp);
}

sim::Task<void> BaselineServer::HandleLookup(net::Packet p) {
  const auto* req = static_cast<const LookupReq*>(p.body.get());
  co_await cpu_.Run(costs_->op_dispatch + ReadOverhead());
  const std::string ikey = InodeKey(req->pid, req->name);
  auto lock = co_await locks_.AcquireShared(ikey);
  co_await cpu_.Run(costs_->path_check *
                    static_cast<sim::SimTime>(1 + req->ancestors.size()));
  auto resp = std::make_shared<LookupResp>();
  auto stale = inval_.Check(req->ancestors);
  if (!stale.empty()) {
    resp->status = StatusCode::kStaleCache;
    resp->stale_ids = std::move(stale);
    rpc_.Respond(p, resp);
    co_return;
  }
  co_await cpu_.Run(costs_->kv_get);
  auto value = kv_.Get(ikey);
  if (!value.has_value()) {
    resp->status = StatusCode::kNotFound;
  } else {
    resp->status = StatusCode::kOk;
    resp->attr = Attr::Decode(*value);
    resp->read_at = sim_->Now();
  }
  rpc_.Respond(p, resp);
}

// Rename: 2PL/2PC coordinated by this server (the client routes renames to
// the configured coordinator).
sim::Task<void> BaselineServer::HandleRename(net::Packet p) {
  const auto* req = static_cast<const MetaReq*>(p.body.get());
  const PathRef& src = req->ref;
  const PathRef& dst = req->ref2;

  const std::string skey = InodeKey(src.pid, src.name);
  const std::string dkey = InodeKey(dst.pid, dst.name);
  if (skey == dkey) {
    RespondStatus(p, StatusCode::kInvalidArgument);
    co_return;
  }
  const BaselinePlacement& placement = cluster_->placement();
  struct Leg {
    uint32_t server;
    InodeId pid;
    std::string name;
    std::string top;         // the leg's own subtree key
    std::string parent_top;  // the leg's parent's subtree key
    bool is_src;
  };
  const std::string src_ptop = src.pid == RootId() ? "/" : req->top;
  const std::string dst_ptop = dst.pid == RootId() ? "/" : req->top2;
  Leg legs[2] = {
      {placement.FileServer(src.pid, src.name, req->top), src.pid, src.name,
       req->top, src_ptop, true},
      {placement.FileServer(dst.pid, dst.name, req->top2), dst.pid, dst.name,
       req->top2, dst_ptop, false},
  };
  if (InodeKey(legs[1].pid, legs[1].name) <
      InodeKey(legs[0].pid, legs[0].name)) {
    std::swap(legs[0], legs[1]);
  }

  const uint64_t txn =
      (static_cast<uint64_t>(index_) << 48) | txn_counter_++;
  Attr src_attr;
  StatusCode failure = StatusCode::kOk;
  int prepared = 0;
  for (int i = 0; i < 2; ++i) {
    auto prep = std::make_shared<RenamePrepare>();
    prep->txn_id = txn;
    prep->pid = legs[i].pid;
    prep->name = legs[i].name;
    prep->must_exist = legs[i].is_src;
    prep->must_absent = !legs[i].is_src;
    net::CallOptions prep_opts;
    prep_opts.timeout = sim::Milliseconds(100);
    prep_opts.max_attempts = 3;
    auto r = co_await rpc_.Call(cluster_->ServerNode(legs[i].server), prep,
                                prep_opts);
    if (!r.ok()) {
      failure = StatusCode::kUnavailable;
      break;
    }
    const auto* pr = net::MsgAs<RenamePrepareResp>(*r);
    if (pr == nullptr || pr->status != StatusCode::kOk) {
      failure = pr == nullptr ? StatusCode::kInternal : pr->status;
      break;
    }
    if (legs[i].is_src) {
      src_attr = pr->attr;
    }
    prepared = i + 1;
  }
  if (failure == StatusCode::kOk && src_attr.is_dir()) {
    for (const AncestorRef& a : dst.ancestors) {
      if (a.id == src_attr.id) {
        failure = StatusCode::kCrossDevice;
        break;
      }
    }
  }
  if (failure != StatusCode::kOk) {
    for (int i = 0; i < prepared; ++i) {
      auto abort = std::make_shared<RenameCommit>();
      abort->txn_id = txn;
      abort->abort = true;
      abort->parent_dir = legs[i].pid;
      abort->parent_entry_name = legs[i].name;
      net::CallOptions abort_opts;
      abort_opts.timeout = sim::Milliseconds(100);
      abort_opts.max_attempts = 3;
      auto r = co_await rpc_.Call(cluster_->ServerNode(legs[i].server), abort,
                                  abort_opts);
      (void)r;
    }
    RespondStatus(p, failure);
    co_return;
  }

  // CephFS-sim moves no inodes: from the commit on, a directory renamed to
  // the top level keeps its subtree where it was placed. (One moved below
  // the top level is not followed: its descendants route by the new
  // top-level name.)
  if (src_attr.is_dir() && dst.pid == RootId()) {
    cluster_->placement().MoveSubtree(req->top, dst.name);
  }
  for (int i = 0; i < 2; ++i) {
    auto commit = std::make_shared<RenameCommit>();
    commit->txn_id = txn;
    commit->delete_inode = legs[i].is_src;
    commit->put_inode = !legs[i].is_src;
    commit->inode = src_attr;
    commit->parent_dir = legs[i].pid;
    commit->parent_entry_name = legs[i].name;
    commit->parent_entry_type = src_attr.type;
    commit->parent_op =
        legs[i].is_src ? OpType::kUnlink : OpType::kCreate;
    commit->log_parent_update = true;
    commit->top = legs[i].parent_top;
    net::CallOptions commit_opts;
    commit_opts.timeout = sim::Milliseconds(100);
    commit_opts.max_attempts = 3;
    auto r = co_await rpc_.Call(cluster_->ServerNode(legs[i].server), commit,
                                commit_opts);
    (void)r;
  }
  // Paths cached under a renamed directory go stale in every system (a
  // CephFS MDS revokes the clients' capabilities on the moved dentries).
  if (src_attr.is_dir()) {
    inval_.Add(src_attr.id, sim_->Now());
    auto bcast = std::make_shared<core::InvalBroadcast>();
    bcast->id = src_attr.id;
    net::Packet mc;
    mc.dst = net::kServerMulticast;
    mc.ds.origin = node_id();
    mc.body = bcast;
    rpc_.Send(std::move(mc));
  }
  RespondStatus(p, StatusCode::kOk);
}

sim::Task<void> BaselineServer::HandleRenamePrepare(net::Packet p) {
  const auto* msg = static_cast<const RenamePrepare*>(p.body.get());
  co_await cpu_.Run(costs_->op_dispatch + costs_->txn_prepare);
  const std::string ikey = InodeKey(msg->pid, msg->name);
  auto resp = std::make_shared<RenamePrepareResp>();
  auto ino = co_await locks_.AcquireExclusive(ikey);
  co_await cpu_.Run(costs_->kv_get);
  auto value = kv_.Get(ikey);
  if (msg->must_exist && !value.has_value()) {
    resp->status = StatusCode::kNotFound;
    rpc_.Respond(p, resp);
    co_return;
  }
  if (msg->must_absent && value.has_value()) {
    resp->status = StatusCode::kAlreadyExists;
    rpc_.Respond(p, resp);
    co_return;
  }
  if (value.has_value()) {
    resp->attr = Attr::Decode(*value);
  }
  resp->status = StatusCode::kOk;
  std::vector<core::LockTable::Handle> held;
  held.push_back(std::move(ino));
  // Keyed by (txn, leg): both legs of a rename may prepare on one server.
  txn_locks_[msg->txn_id ^ HashString(ikey)] = std::move(held);
  rpc_.Respond(p, resp);
}

sim::Task<void> BaselineServer::HandleRenameCommit(net::Packet p) {
  const auto* msg = static_cast<const RenameCommit*>(p.body.get());
  co_await cpu_.Run(costs_->op_dispatch + costs_->txn_commit);
  const std::string key = InodeKey(msg->parent_dir, msg->parent_entry_name);
  auto it = txn_locks_.find(msg->txn_id ^ HashString(key));
  if (it == txn_locks_.end()) {
    rpc_.Respond(p, net::MakeMsg<core::Ack>());
    co_return;
  }
  if (msg->abort) {
    txn_locks_.erase(it);
    rpc_.Respond(p, net::MakeMsg<core::Ack>());
    co_return;
  }
  co_await cpu_.Run(costs_->wal_append);
  wal_.Append(1, key);
  if (msg->delete_inode) {
    co_await cpu_.Run(costs_->kv_delete);
    kv_.Delete(key);
  } else {
    co_await cpu_.Run(costs_->kv_put);
    Attr attr = msg->inode;
    kv_.Put(key, attr.Encode());
  }
  if (msg->log_parent_update) {
    Status s = co_await DirUpdate(msg->parent_dir, msg->top,
                                  msg->parent_entry_name,
                                  msg->parent_entry_type,
                                  msg->parent_op == OpType::kUnlink);
    (void)s;
  }
  txn_locks_.erase(msg->txn_id ^ HashString(key));
  rpc_.Respond(p, net::MakeMsg<core::Ack>());
}

// ---------------------------------------------------------------------------
// BaselineCluster
// ---------------------------------------------------------------------------

BaselineCluster::BaselineCluster(BaselineConfig config)
    : config_(std::move(config)) {
  net_ = std::make_unique<net::Network>(&sim_, &config_.costs, config_.seed);
  switch_ =
      std::make_unique<net::PlainSwitch>(config_.costs.plain_switch_delay);
  net_->SetSwitch(switch_.get());
  net_->SetFaults(config_.faults);
  for (uint32_t i = 0; i < config_.num_servers; ++i) {
    ring_.AddServer(i);
  }
  placement_ = std::make_unique<BaselinePlacement>(config_.kind, &ring_);
  for (uint32_t i = 0; i < config_.num_servers; ++i) {
    servers_.push_back(std::make_unique<BaselineServer>(
        &sim_, net_.get(), this, &config_.costs, config_, i));
  }
  std::vector<net::NodeId> group;
  for (const auto& s : servers_) {
    group.push_back(s->node_id());
  }
  switch_->SetServerGroup(group);
  for (const auto& s : servers_) {
    s->SeedRoot();
  }
  PreloadedDir root;
  root.id = RootId();
  root.ancestors = {AncestorRef{RootId(), 0}};
  root.top = "/";
  preloaded_["/"] = root;
}

BaselineCluster::~BaselineCluster() = default;

namespace {

// The top-level component a CephFS subtree is keyed by ("/" for the root).
std::string_view TopOf(std::string_view path) {
  return path == "/" ? path : SplitPath(path)[0];
}

}  // namespace

uint32_t BaselineCluster::InodeServer(const InodeId& pid,
                                      const std::string& name,
                                      std::string_view dir_path) const {
  const std::string_view top = dir_path == "/" ? name : TopOf(dir_path);
  return placement_->FileServer(pid, name, std::string(top));
}

uint32_t BaselineCluster::DirServer(const InodeId& dir,
                                    std::string_view path) const {
  return placement_->DirServer(dir, std::string(TopOf(path)));
}

void BaselineCluster::StampRoute(MetaReq& req, std::string_view path,
                                 std::string_view to) const {
  req.top = TopOf(path);
  if (!to.empty()) {
    req.top2 = TopOf(to);
  }
}

std::unique_ptr<core::MetadataService> BaselineCluster::NewClient(bool warm) {
  core::FsClient::Config cc;
  cc.rename_coordinator = config_.rename_coordinator;
  cc.retry_backoff = sim::Microseconds(100);
  cc.mtu_bytes = config_.mtu_bytes;
  cc.mtu_entries = config_.mtu_entries;
  // CephFS-sim ops cost hundreds of microseconds and queue far beyond that
  // under load; give its RPCs a generous deadline. The emulated systems stay
  // within microseconds and keep the client defaults.
  if (config_.kind == SystemKind::kCephFS) {
    cc.call.timeout = sim::Milliseconds(400);
    cc.call.max_attempts = 4;
    cc.txn_call.timeout = sim::Seconds(4);
    cc.txn_call.max_attempts = 2;
  }
  auto client = std::make_unique<core::FsClient>(&sim_, net_.get(), this,
                                                 &config_.costs, cc);
  if (warm) {
    warm_snapshot_.Warm(client->cache(), preloaded_,
                        [](const PreloadedDir& dir) {
                          CachedDir entry;
                          entry.id = dir.id;
                          entry.mode = 0755;
                          entry.ancestors = dir.ancestors;
                          return entry;
                        });
  }
  return client;
}

void BaselineCluster::BumpPreloadedDirSize(const std::string& dir_path) {
  const PreloadedDir& dir = preloaded_.at(dir_path);
  BaselineServer& home = *servers_[placement_->DirServer(dir.id, dir.top)];
  auto value = home.kv().Get(ContentKey(dir.id));
  if (value.has_value()) {
    Attr attr = Attr::Decode(*value);
    attr.size += 1;
    home.kv().Put(ContentKey(dir.id), attr.Encode());
  }
}

void BaselineCluster::PreloadDir(const std::string& path) {
  if (preloaded_.count(path) > 0) {
    return;
  }
  const std::string parent_path(ParentPath(path));
  auto pit = preloaded_.find(parent_path);
  assert(pit != preloaded_.end() && "preload parents before children");
  const PreloadedDir& parent = pit->second;
  const std::string name(Basename(path));
  const std::string top(SplitPath(path)[0]);

  PreloadedDir dir;
  dir.id.w[0] = HashString(path);
  dir.id.w[1] = HashString(path, 11);
  dir.id.w[3] = 6;
  dir.ancestors = parent.ancestors;
  dir.ancestors.push_back(AncestorRef{dir.id, 0});
  dir.top = top;

  Attr attr;
  attr.id = dir.id;
  attr.type = FileType::kDirectory;
  attr.mode = 0755;
  // Identity inode at the file server of (parent, name).
  servers_[placement_->FileServer(parent.id, name, top)]->PreloadInode(
      InodeKey(parent.id, name), attr);
  // Content record at the home server.
  servers_[placement_->DirServer(dir.id, top)]->kv().Put(ContentKey(dir.id),
                                                         attr.Encode());
  // Parent entry + size bump.
  servers_[placement_->DirServer(parent.id, parent.top)]->PreloadEntry(
      parent.id, name, FileType::kDirectory);
  preloaded_[path] = dir;
  warm_snapshot_.Invalidate();
  BumpPreloadedDirSize(parent_path);
}

void BaselineCluster::PreloadFileAt(const std::string& path) {
  const std::string parent_path(ParentPath(path));
  auto pit = preloaded_.find(parent_path);
  assert(pit != preloaded_.end() && "preload the parent directory first");
  const PreloadedDir& parent = pit->second;
  const std::string name(Basename(path));
  const std::string top(SplitPath(path)[0]);

  Attr attr;
  attr.id.w[0] = HashString(path);
  attr.id.w[3] = 7;
  attr.type = FileType::kFile;
  attr.mode = 0644;
  servers_[placement_->FileServer(parent.id, name, top)]->PreloadInode(
      InodeKey(parent.id, name), attr);
  servers_[placement_->DirServer(parent.id, parent.top)]->PreloadEntry(
      parent.id, name, FileType::kFile);
  BumpPreloadedDirSize(parent_path);
}

}  // namespace switchfs::baselines
