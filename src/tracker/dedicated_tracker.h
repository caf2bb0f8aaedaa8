// Dedicated-server dirty tracker (§7.3.3, Fig 15): one TrackerServer node
// maintains the dirty set; every hook costs an extra RTT to it. The node is
// a single point of failure — while it is down, inserts fall back to
// synchronous parent updates and client pre-reads degrade to "not
// scattered" hints (exactly the weakness the replicated tracker removes).
// RecoverAndRebuild models the operator-driven recovery: restart the node
// empty, then reconstruct the dirty set from the servers' pending
// change-log state.
#ifndef SRC_TRACKER_DEDICATED_TRACKER_H_
#define SRC_TRACKER_DEDICATED_TRACKER_H_

#include <vector>

#include "src/tracker/dirty_tracker.h"
#include "src/tracker/tracker_server.h"

namespace switchfs::tracker {

class DedicatedTracker : public DirtyTracker {
 public:
  DedicatedTracker(sim::Simulator* sim, net::Network* net,
                   core::ClusterContext* cluster, const sim::CostModel* costs,
                   TrackerServer* server)
      : sim_(sim),
        cluster_(cluster),
        costs_(costs),
        server_(server),
        ctl_rpc_(sim, net) {}

  const char* name() const override { return "dedicated"; }

  sim::Task<InsertResult> Insert(core::ServerContext& ctx, core::VolPtr v,
                                 psw::Fingerprint fp, const core::InodeId& dir,
                                 const net::Packet* client_req,
                                 net::MsgPtr client_resp) override;
  sim::Task<void> RemoveAndMulticast(core::ServerContext& ctx, core::VolPtr v,
                                     std::vector<psw::Fingerprint> fps,
                                     uint64_t seq, net::Packet rm) override;
  bool ReadScattered(const core::ServerContext& ctx,
                     const core::ServerVolatile& v, const net::Packet& p,
                     const core::MetaReq& req,
                     psw::Fingerprint fp) const override;
  sim::Task<void> ClientPreRead(net::RpcEndpoint& rpc, psw::Fingerprint fp,
                                core::MetaReq& req,
                                net::CallOptions& opts) override;

  // Operator-driven recovery after a tracker crash: restart the node with an
  // empty set and reconstruct it from every server's pending change-logs.
  // Completes when the tracker serves a fully reconstructed set again.
  sim::Task<void> RecoverAndRebuild();

  TrackerServer* server() { return server_; }
  uint64_t reconstructed_entries() const { return reconstructed_entries_; }

 private:
  sim::Simulator* sim_;
  core::ClusterContext* cluster_;
  const sim::CostModel* costs_;
  TrackerServer* server_;
  net::RpcEndpoint ctl_rpc_;  // failover/reconstruction control traffic
  uint64_t reconstructed_entries_ = 0;
};

}  // namespace switchfs::tracker

#endif  // SRC_TRACKER_DEDICATED_TRACKER_H_
