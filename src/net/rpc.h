// Coroutine RPC endpoint over the simulated UDP fabric.
//
// Faithful to the paper's transport (§5.4.1, §7.1): UDP with client-side
// timeout/retransmission; receivers suppress duplicate requests by the
// (caller, call_id) tuple and replay cached responses; responses may be
// delivered out-of-band (SwitchFS's insert-ack multicast carries the create
// response through the switch rather than from the executing server).
//
// Reply windows. Call ids are issued in increasing order, and every request
// carries the caller's lowest still-outstanding call id
// (`RpcHeader::done_below`). The callee keeps one window per caller: it
// raises the caller's watermark from each request and frees every cached
// reply below it, so the cache holds what the caller may still retransmit,
// not every reply ever sent. A request below the watermark is a stale
// duplicate of a finished call and is dropped (the caller would discard its
// reply: it has no pending call). At or above the watermark, an in-flight
// duplicate is dropped and a completed one is replayed from the cache. A
// request with done_below = 0 (a hand-built packet) frees nothing;
// kMaxRepliesPerCaller caps each window as a backstop, evicting the lowest
// call id.
//
// Crashes. A caller's ResetVolatileState abandons its outstanding calls:
// their coroutines fail with kUnavailable when they next wake, and the
// caller's next request acknowledges every earlier id, freeing its window at
// each callee it reaches. A callee's ResetVolatileState drops every window;
// a retransmit that arrives afterwards is executed again, as after any
// crash that wipes DRAM.
//
// Attempt timeouts. Each attempt schedules one timeout event that names the
// endpoint by its network address and the call by its id; it holds no
// reference to the call's state. A call frees its slot when it finishes,
// and a timeout that fires later finds nothing to wake. An endpoint
// unbinds its address when destroyed, so a later timeout finds no endpoint
// and its network must outlive it.
#ifndef SRC_NET_RPC_H_
#define SRC_NET_RPC_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/sim/cpu.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::net {

struct CallOptions {
  sim::SimTime timeout = sim::Microseconds(100);
  int max_attempts = 8;
  // Optional dirty-set operation header stamped on every attempt's packet
  // (SwitchFS directory reads attach a kQuery the switch answers in-flight).
  DsHeader ds;
  // Optional metadata-cache header (lookup/stat reads attach a kRead the
  // switch may answer from its register cache without reaching the owner).
  CacheHeader mc;
};

class RpcEndpoint : public Node {
 public:
  // Invoked for deduplicated inbound requests. The handler owns replying,
  // via Respond() (direct) or RecordResponse() (out-of-band delivery).
  using RequestHandler = std::function<void(Packet)>;
  // Invoked for non-RPC packets (dirty-set notifications, one-way signals).
  using RawHandler = std::function<void(Packet)>;

  RpcEndpoint(sim::Simulator* sim, Network* net);
  ~RpcEndpoint() override;
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  NodeId id() const { return id_; }
  sim::Simulator* simulator() const { return sim_; }
  Network* network() const { return net_; }

  void SetRequestHandler(RequestHandler h) { request_handler_ = std::move(h); }
  void SetRawHandler(RawHandler h) { raw_handler_ = std::move(h); }
  // When set, rx/tx packet-processing costs are charged to this CPU pool.
  void SetCpu(sim::CpuPool* cpu) { cpu_ = cpu; }
  // Disabled endpoints drop all traffic (crashed / recovering node).
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  // Drops the reply windows and abandons every outstanding call (crash wipes
  // DRAM).
  void ResetVolatileState();

  // --- client side ---
  sim::Task<StatusOr<MsgPtr>> Call(NodeId dst, MsgPtr request,
                                   CallOptions opts = CallOptions{});

  // --- server side ---
  // Sends `resp` to the caller of `request` and caches it for retransmits.
  void Respond(const Packet& request, MsgPtr resp, uint32_t size_bytes = 128);
  // Caches `resp` for retransmits without sending (the first copy was
  // delivered out-of-band, e.g. via the switch insert-ack multicast).
  void RecordResponse(const Packet& request, MsgPtr resp);
  // Builds the response packet for `request` without sending or caching
  // (used to hand the pre-built response to the switch data plane).
  Packet MakeResponsePacket(const Packet& request, MsgPtr resp,
                            uint32_t size_bytes = 128) const;

  // --- raw sends (dirty-set ops, one-way notifications) ---
  void Send(Packet p);
  // Convenience: one-way message (no call id, handled by the raw handler).
  void Notify(NodeId dst, MsgPtr msg, uint32_t size_bytes = 128);

  void HandlePacket(Packet p) override;

  // Duplicates of a request at or above its caller's watermark (dropped
  // while in flight, replayed once completed).
  uint64_t duplicate_requests_seen() const { return dup_requests_; }
  // Requests below their caller's watermark, dropped unexecuted.
  uint64_t stale_requests_dropped() const { return stale_requests_; }
  uint64_t retransmits_sent() const { return retransmits_; }
  // Live reply-window entries held for `caller` (in flight or completed).
  size_t cached_replies(NodeId caller) const;

 private:
  using Slot = sim::OneShot<MsgPtr>;
  // One callee-side cache entry; `response` is null while the handler runs.
  struct CachedReply {
    uint64_t call_id;
    MsgPtr response;
  };
  // Callee-side window for one caller: replies[head..] are live, sorted by
  // call id; entries before `head` are freed and compacted away lazily.
  struct ReplyWindow {
    uint64_t done_below = 0;
    size_t head = 0;
    std::vector<CachedReply> replies;

    size_t live() const { return replies.size() - head; }
    // First live entry whose call id is not below `call_id`.
    std::vector<CachedReply>::iterator LowerBound(uint64_t call_id);
    void FreeFront(size_t n);
  };

  void DispatchRequest(Packet p);
  void CacheResponse(const Packet& request, MsgPtr resp);
  // Marks `call_id` finished, frees its slot, and advances the call window
  // past every finished call at its front.
  void FinishCall(uint64_t call_id);
  // The current attempt of `call_id` timed out: wakes its caller with a
  // null response, unless the call already finished.
  void ExpireAttempt(uint64_t call_id);
  sim::Task<void> ChargedDeliver(Packet p);

  sim::Simulator* sim_;
  Network* net_;
  NodeId id_;
  sim::CpuPool* cpu_ = nullptr;
  bool enabled_ = true;

  RequestHandler request_handler_;
  RawHandler raw_handler_;

  // Caller-side call window: calls_[i] is the slot of call `calls_base_ + i`
  // (re-armed per attempt), null once that call finished. Finished calls are
  // popped from the front, so calls_base_ is the lowest outstanding call id
  // (next_call_id_ when none is) and is what requests carry as done_below.
  uint64_t next_call_id_ = 1;
  uint64_t calls_base_ = 1;
  std::deque<std::unique_ptr<Slot>> calls_;
  // Slots of calls ResetVolatileState abandoned, kept until each call's
  // coroutine wakes (at its timeout) and returns kUnavailable.
  std::vector<std::pair<uint64_t, std::unique_ptr<Slot>>> abandoned_;

  static constexpr size_t kMaxRepliesPerCaller = 1 << 16;
  std::unordered_map<NodeId, ReplyWindow> reply_windows_;

  uint64_t dup_requests_ = 0;
  uint64_t stale_requests_ = 0;
  uint64_t retransmits_ = 0;
};

}  // namespace switchfs::net

#endif  // SRC_NET_RPC_H_
