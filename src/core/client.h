// The client library every system hands out (paper §4.2 for SwitchFS; the
// four baselines run it too, §7.1's "same storage and networking
// framework"). FsClient resolves paths through a directory-metadata cache,
// routes each operation, retries operations bounced by stale-cache
// invalidations, unreachable owners or recovering servers, and drives the
// directory-session, batch and rename ops. It asks its system one question,
// placement (ClientPlacement): which server holds the inode of (pid, name),
// and how and where a directory-targeted op goes. It stamps SwitchFS's
// dirty-set pre-read hook and in-switch cache reads only when its Config
// enables them (Cluster::MakeClient does). SwitchFsClient adds what only
// SwitchFS servers serve: the pipelined page-sequenced Readdir, the native
// BatchStatDir, hard links and the one-RPC ReaddirMonolithic.
#ifndef SRC_CORE_CLIENT_H_
#define SRC_CORE_CLIENT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/client_cache.h"
#include "src/core/messages.h"
#include "src/core/metadata_service.h"
#include "src/net/rpc.h"
#include "src/sim/costs.h"
#include "src/sim/sync.h"

namespace switchfs::tracker {
class DirtyTracker;  // src/tracker/dirty_tracker.h
}  // namespace switchfs::tracker

namespace switchfs::core {

// The per-system question the client asks. Cluster answers for SwitchFS:
// every op, directory-targeted ones included, goes to the ring owner of its
// target's (pid, name) fingerprint. BaselineCluster answers for the four
// baselines: a file by BaselinePlacement::FileServer, a directory-targeted
// op by the directory's id at BaselinePlacement::DirServer, and CephFS's
// subtree keys stamped on the request.
class ClientPlacement {
 public:
  virtual ~ClientPlacement() = default;
  virtual net::NodeId ServerNode(uint32_t server_index) const = 0;
  // Server holding the inode of `name` in directory `pid`, which the client
  // resolved at `dir_path`.
  virtual uint32_t InodeServer(const InodeId& pid, const std::string& name,
                               std::string_view dir_path) const = 0;
  // True if directory-targeted ops (StatDir, OpenDir, monolithic readdir)
  // name the directory by its id, (id, ""), and go to DirServer. False: they
  // name it by its own (pid, name) and go to its InodeServer.
  virtual bool DirOpsById() const { return false; }
  // Server holding the content of directory `dir`, resolved at `path`.
  // Asked only when DirOpsById().
  virtual uint32_t DirServer(const InodeId& /*dir*/,
                             std::string_view /*path*/) const {
    return 0;
  }
  // Stamps the routing keys the system's servers read off `req`, whose
  // target is `path` (and, for a rename, whose destination is `to`).
  virtual void StampRoute(MetaReq& /*req*/, std::string_view /*path*/,
                          std::string_view /*to*/) const {}
};

class FsClient : public MetadataService {
 public:
  struct Config {
    // SwitchFS: the cluster's dirty-set tracker; directory reads run its
    // pre-read hook (in-network query header or tracker pre-query). Null
    // skips the hook.
    tracker::DirtyTracker* dirty_tracker = nullptr;
    uint32_t rename_coordinator = 0;
    int max_op_retries = 12;
    sim::SimTime retry_backoff = sim::Microseconds(200);
    net::CallOptions call = [] {
      net::CallOptions o;
      o.timeout = sim::Milliseconds(2);
      o.max_attempts = 8;
      return o;
    }();
    // Renames are multi-RPC distributed transactions; a premature client
    // timeout spawns a duplicate transaction that contends with the original
    // (locks, EEXIST aborts), so their deadline is transaction-scale.
    net::CallOptions txn_call = [] {
      net::CallOptions o;
      o.timeout = sim::Milliseconds(50);
      o.max_attempts = 3;
      return o;
    }();
    // OpenDir is the directory stream's one heavyweight op: the owner
    // aggregates every deferred entry of the directory before opening the
    // session, which can be O(directory) work. Pages stay on the tight
    // `call` deadline — they are mtu-bounded — but the open needs a
    // directory-scale one.
    net::CallOptions opendir_call = [] {
      net::CallOptions o;
      o.timeout = sim::Seconds(2);
      o.max_attempts = 3;
      return o;
    }();
    // SwitchFS: depth of the Readdir prefetch pipeline, how many page RPCs
    // are kept in flight at once. SwitchFS page cookies are sequence
    // numbers, so the client can speculatively request page p+1..p+k while
    // consuming page p; the owner overlaps their scans across its cores.
    // 1 disables prefetch.
    int prefetch_pages = 3;
    // Transport page budget for BulkInsert chunking — must match the
    // servers' mtu_bytes / mtu_entries (each cluster's NewClient copies
    // them).
    int mtu_bytes = 1400;
    int mtu_entries = 128;
    // SwitchFS in-switch metadata read cache: stamp lookup/stat requests
    // with an mc.kRead header so the data plane can answer hits without
    // touching the owner (Cluster::MakeClient copies the servers' setting).
    bool switch_cache = false;
    // SwitchFS BatchStatDir: stamp scattered_hint on the multi-target
    // requests so the owner runs the aggregation dance per directory target.
    // Required for tracker modes whose dirty test is request-scoped (the
    // batch cannot pre-query N fingerprints in one packet); owner-tracker
    // clusters clear it and rely on the owner's precise local set
    // (MakeClient sets this).
    bool batch_stat_dir_hint = true;
  };

  FsClient(sim::Simulator* sim, net::Network* net,
           const ClientPlacement* placement, const sim::CostModel* costs,
           Config config);

  // MetadataService:
  sim::Task<Status> Create(const std::string& path) override;
  sim::Task<Status> Unlink(const std::string& path) override;
  sim::Task<Status> Mkdir(const std::string& path) override;
  sim::Task<Status> Rmdir(const std::string& path) override;
  sim::Task<StatusOr<Attr>> Stat(const std::string& path) override;
  sim::Task<StatusOr<Attr>> StatDir(const std::string& path) override;
  sim::Task<StatusOr<Attr>> Open(const std::string& path) override;
  sim::Task<Status> Close(const std::string& path) override;
  sim::Task<Status> SetAttr(const std::string& path,
                            const AttrDelta& delta) override;
  sim::Task<StatusOr<DirHandle>> OpenDir(const std::string& path) override;
  sim::Task<StatusOr<DirPage>> ReaddirPage(const DirHandle& handle,
                                           uint64_t cookie) override;
  sim::Task<Status> CloseDir(const DirHandle& handle) override;
  sim::Task<std::vector<StatusOr<Attr>>> BatchStat(
      const std::vector<std::string>& paths) override;
  sim::Task<std::vector<Status>> BulkInsert(
      const DirHandle& handle, const std::vector<std::string>& names) override;
  sim::Task<Status> Rename(const std::string& from,
                           const std::string& to) override;

  ClientCache& cache() { return cache_; }
  net::RpcEndpoint& rpc() { return rpc_; }

 protected:
  // Typed request description. Call sites build the request through the
  // named factories; IssueOp owns resolution, routing, and the
  // stale-cache/transport retry loop for every path-addressed op.
  struct MetaCall {
    OpType op = OpType::kStat;
    bool dir_target = false;    // the path itself is the target directory
    bool want_entries = false;  // monolithic readdir payload
    bool pre_read = false;      // run the dirty-tracker pre-read hook
    uint32_t mode = 0644;
    AttrDelta delta;

    static MetaCall Mutation(OpType op, uint32_t mode = 0644) {
      MetaCall c;
      c.op = op;
      c.mode = mode;
      return c;
    }
    static MetaCall FileRead(OpType op) {
      MetaCall c;
      c.op = op;
      return c;
    }
    static MetaCall DirRead(OpType op, bool want_entries) {
      MetaCall c;
      c.op = op;
      c.dir_target = true;
      c.want_entries = want_entries;
      c.pre_read = true;
      return c;
    }
    static MetaCall AttrUpdate(const AttrDelta& delta) {
      MetaCall c;
      c.op = OpType::kSetAttr;
      c.delta = delta;
      return c;
    }
  };

  struct OpResult {
    Status status;
    Attr attr;
    std::vector<DirEntry> entries;
    uint64_t dir_session = 0;        // kOpenDir
    uint64_t next_cookie = 0;        // kReaddirPage
    bool at_end = false;             // kReaddirPage
    psw::Fingerprint target_fp = 0;  // fingerprint of the target's (pid, name)
    uint32_t server = 0;             // the server the op was routed to
  };

  // Resolves the parent directory of `path` into a PathRef. May issue
  // lookups; bounces stale cache entries internally.
  sim::Task<StatusOr<PathRef>> ResolveParent(const std::string& path);
  // Resolves one directory path to a cache entry (see ResolveParent).
  sim::Task<StatusOr<CachedDir>> ResolveDir(const std::string& path);

  sim::Task<OpResult> IssueOp(MetaCall call, const std::string& path);
  // Session-addressed ops (ReaddirPage / CloseDir): no path resolution —
  // routed straight to the server pinned in the handle state.
  sim::Task<OpResult> IssueSessionOp(OpType op, uint32_t server,
                                     uint64_t session, uint64_t cookie);
  // Resolves every path, groups the targets by the server placement puts
  // them on, ships ONE multi-target MetaReq per server, and maps the
  // per-target verdicts back into path order, retrying transient failures
  // (stale cache, unreachable or recovering servers) across rounds. `op`
  // selects the server-side flavor (kBatchStat for file targets,
  // kBatchStatDir for directory targets addressed by (pid, name));
  // `scattered_hint` stamps the requests so a server whose dirty test is
  // request-scoped runs the aggregation dance per directory target.
  sim::Task<std::vector<StatusOr<Attr>>> RunBatchStat(
      std::vector<std::string> paths, OpType op, bool scattered_hint,
      net::CallOptions call);
  // Unwraps InsertEnvelope responses and maps the response message.
  static const MetaResp* UnwrapResponse(const net::MsgPtr& msg);
  // Invalidates the ids a kStaleCache verdict names; true if `resp` was one.
  bool BounceStale(const MetaResp& resp);
  // True for the verdicts the op retry loops retry after a backoff.
  static bool Transient(StatusCode code) {
    return code == StatusCode::kStaleCache || code == StatusCode::kTimeout ||
           code == StatusCode::kUnavailable;
  }

  sim::Simulator* sim_;
  const ClientPlacement* placement_;
  const sim::CostModel* costs_;
  Config config_;
  net::RpcEndpoint rpc_;
  ClientCache cache_;

 private:
  // One BulkInsert chunk (one server, one page-fill of names): builds the
  // multi-entry request, runs the stale-cache/transport retry loop, and
  // writes the per-name verdicts into `out` at positions `idxs`.
  sim::Task<void> SendBulkChunk(std::string dir_path, InodeId dir,
                                psw::Fingerprint parent_fp, uint32_t server,
                                const std::vector<std::string>& names,
                                std::vector<size_t> idxs,
                                std::vector<Status>* out);
};

// The SwitchFS client: FsClient over Cluster's placement, plus the ops only
// SwitchFS servers serve.
class SwitchFsClient : public FsClient {
 public:
  using FsClient::FsClient;

  // Pipelined whole-directory listing: overrides the base one-page-at-a-time
  // drain with a `prefetch_pages`-deep window of speculative page RPCs.
  // Pages are served idempotently by sequence number, so speculation is
  // safe; a kStaleHandle on any page restarts the scan like the base path.
  sim::Task<StatusOr<std::vector<DirEntry>>> Readdir(
      const std::string& path) override;
  // One multi-target kBatchStatDir request per owner: the owner runs the
  // per-target agg-gate dance (the base class drains per-path StatDirs).
  sim::Task<std::vector<StatusOr<Attr>>> BatchStatDir(
      const std::vector<std::string>& paths) override;
  // Whole-directory listing in ONE RPC (the pre-v2 shape). Kept as the A/B
  // lever for bench_readdir_paging and for recovery tooling; Readdir pages
  // through OpenDir/ReaddirPage instead.
  sim::Task<StatusOr<std::vector<DirEntry>>> ReaddirMonolithic(
      const std::string& path);
  // Hard link (§5.5): `dst` becomes another name for `src`'s file. Not part
  // of MetadataService — the baselines do not implement hard links.
  sim::Task<Status> Link(const std::string& src, const std::string& dst);

 private:
  // One prefetched page in flight: FetchPage runs detached and joins the
  // Readdir loop through the slot's completion event.
  struct PageSlot {
    explicit PageSlot(sim::Simulator* sim)
        : result(InternalError("pending")), done(sim) {}
    StatusOr<DirPage> result;
    sim::OneShot<int> done;
  };
  sim::Task<void> FetchPage(DirHandle handle, uint64_t cookie,
                            std::shared_ptr<PageSlot> slot);
};

}  // namespace switchfs::core

#endif  // SRC_CORE_CLIENT_H_
