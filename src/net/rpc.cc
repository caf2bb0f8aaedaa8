#include "src/net/rpc.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace switchfs::net {

namespace {

// An attempt's timeout names its endpoint by address and its call by id,
// packed into one word so the event's closure stays two words wide and is
// stored inline, without an allocation.
constexpr int kTimeoutNodeBits = 24;

}  // namespace

RpcEndpoint::RpcEndpoint(sim::Simulator* sim, Network* net)
    : sim_(sim), net_(net), id_(net->Register(this)) {
  assert(id_ < (NodeId{1} << kTimeoutNodeBits));
}

RpcEndpoint::~RpcEndpoint() { net_->Rebind(id_, nullptr); }

void RpcEndpoint::ResetVolatileState() {
  for (size_t i = 0; i < calls_.size(); ++i) {
    if (calls_[i] != nullptr) {
      abandoned_.emplace_back(calls_base_ + i, std::move(calls_[i]));
    }
  }
  calls_.clear();
  calls_base_ = next_call_id_;
  reply_windows_.clear();
}

size_t RpcEndpoint::cached_replies(NodeId caller) const {
  auto it = reply_windows_.find(caller);
  return it == reply_windows_.end() ? 0 : it->second.live();
}

sim::Task<StatusOr<MsgPtr>> RpcEndpoint::Call(NodeId dst, MsgPtr request,
                                              CallOptions opts) {
  const uint64_t call_id = next_call_id_++;
  assert(call_id < (uint64_t{1} << (64 - kTimeoutNodeBits)));
  calls_.push_back(std::make_unique<Slot>(sim_));
  Slot* const slot = calls_.back().get();
  const uint64_t timeout_key = (call_id << kTimeoutNodeBits) | id_;
  Packet p;
  p.src = id_;
  p.dst = dst;
  p.ds = opts.ds;
  p.mc = opts.mc;
  p.rpc = RpcHeader{call_id, id_, /*is_response=*/false};
  p.body = std::move(request);

  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    if (!enabled_) {
      FinishCall(call_id);
      co_return UnavailableError("caller endpoint down");
    }
    if (call_id < calls_base_) {
      FinishCall(call_id);
      co_return UnavailableError("caller endpoint reset");
    }
    if (attempt > 0) {
      retransmits_++;
      *slot = Slot(sim_);
    }
    p.rpc.done_below = calls_base_;
    Send(p);
    sim_->ScheduleAfter(opts.timeout, [net = net_, timeout_key] {
      if (auto* self = dynamic_cast<RpcEndpoint*>(
              net->node(static_cast<NodeId>(
                  timeout_key & ((uint64_t{1} << kTimeoutNodeBits) - 1))))) {
        self->ExpireAttempt(timeout_key >> kTimeoutNodeBits);
      }
    });
    MsgPtr resp = co_await slot->Wait();
    if (resp != nullptr) {
      FinishCall(call_id);
      co_return resp;
    }
  }
  FinishCall(call_id);
  co_return TimeoutError("rpc retries exhausted");
}

void RpcEndpoint::FinishCall(uint64_t call_id) {
  if (call_id < calls_base_) {  // abandoned by ResetVolatileState
    std::erase_if(abandoned_,
                  [call_id](const auto& a) { return a.first == call_id; });
    return;
  }
  calls_[call_id - calls_base_] = nullptr;
  while (!calls_.empty() && calls_.front() == nullptr) {
    calls_.pop_front();
    calls_base_++;
  }
}

void RpcEndpoint::ExpireAttempt(uint64_t call_id) {
  Slot* slot = nullptr;
  if (call_id >= calls_base_) {
    if (call_id < next_call_id_) {
      slot = calls_[call_id - calls_base_].get();
    }
  } else {
    for (const auto& [id, abandoned] : abandoned_) {
      if (id == call_id) {
        slot = abandoned.get();
      }
    }
  }
  if (slot != nullptr) {
    slot->Set(nullptr);
  }
}

Packet RpcEndpoint::MakeResponsePacket(const Packet& request, MsgPtr resp,
                                       uint32_t size_bytes) const {
  Packet p;
  p.src = id_;
  p.dst = request.rpc.caller;
  p.rpc = RpcHeader{request.rpc.call_id, request.rpc.caller,
                    /*is_response=*/true};
  p.body = std::move(resp);
  p.size_bytes = size_bytes;
  return p;
}

std::vector<RpcEndpoint::CachedReply>::iterator
RpcEndpoint::ReplyWindow::LowerBound(uint64_t call_id) {
  return std::lower_bound(
      replies.begin() + head, replies.end(), call_id,
      [](const CachedReply& r, uint64_t id) { return r.call_id < id; });
}

void RpcEndpoint::ReplyWindow::FreeFront(size_t n) {
  for (size_t end = head + n; head < end; ++head) {
    replies[head].response.reset();
  }
  if (head == replies.size()) {
    replies.clear();
    head = 0;
  } else if (head * 2 >= replies.size()) {
    replies.erase(replies.begin(), replies.begin() + head);
    head = 0;
  }
}

void RpcEndpoint::CacheResponse(const Packet& request, MsgPtr resp) {
  auto w = reply_windows_.find(request.rpc.caller);
  if (w == reply_windows_.end()) {
    return;
  }
  auto r = w->second.LowerBound(request.rpc.call_id);
  if (r != w->second.replies.end() && r->call_id == request.rpc.call_id) {
    r->response = std::move(resp);
  }
  // Otherwise the caller finished the call (or the backstop evicted it)
  // while the handler ran; nothing to update.
}

void RpcEndpoint::Respond(const Packet& request, MsgPtr resp,
                          uint32_t size_bytes) {
  CacheResponse(request, resp);
  Send(MakeResponsePacket(request, std::move(resp), size_bytes));
}

void RpcEndpoint::RecordResponse(const Packet& request, MsgPtr resp) {
  CacheResponse(request, std::move(resp));
}

void RpcEndpoint::Send(Packet p) {
  if (!enabled_) {
    return;
  }
  p.src = id_;
  if (cpu_ != nullptr) {
    const sim::SimTime tx = net_->costs()->tx_cost;
    sim::Spawn([](RpcEndpoint* self, Packet pkt, sim::SimTime cost)
                   -> sim::Task<void> {
      co_await self->cpu_->Run(cost);
      if (self->enabled_) {
        self->net_->Send(std::move(pkt));
      }
    }(this, std::move(p), tx));
    return;
  }
  net_->Send(std::move(p));
}

void RpcEndpoint::Notify(NodeId dst, MsgPtr msg, uint32_t size_bytes) {
  Packet p;
  p.src = id_;
  p.dst = dst;
  p.body = std::move(msg);
  p.size_bytes = size_bytes;
  Send(std::move(p));
}

void RpcEndpoint::HandlePacket(Packet p) {
  if (!enabled_) {
    return;
  }
  if (cpu_ != nullptr) {
    sim::Spawn(ChargedDeliver(std::move(p)));
    return;
  }
  DispatchRequest(std::move(p));
}

sim::Task<void> RpcEndpoint::ChargedDeliver(Packet p) {
  co_await cpu_->Run(net_->costs()->rx_cost);
  if (enabled_) {
    DispatchRequest(std::move(p));
  }
}

void RpcEndpoint::DispatchRequest(Packet p) {
  if (p.rpc.is_response) {
    // Response to one of our outstanding calls?
    if (p.rpc.caller == id_ && p.rpc.call_id >= calls_base_ &&
        p.rpc.call_id < next_call_id_) {
      // A null body would read as a timeout; only ExpireAttempt sends one.
      const std::unique_ptr<Slot>& slot = calls_[p.rpc.call_id - calls_base_];
      if (slot != nullptr && p.body != nullptr) {
        slot->Set(std::move(p.body));
        return;
      }
    }
    // Not ours / already resolved. SwitchFS reuses response packets as
    // dirty-set notifications (insert-ack mirror to the executing server);
    // hand those to the raw handler.
    if (p.has_ds_op() && raw_handler_) {
      raw_handler_(std::move(p));
    }
    return;
  }
  if (p.rpc.call_id == 0) {
    if (raw_handler_) {
      raw_handler_(std::move(p));
    }
    return;
  }
  // Inbound request: duplicate suppression by (caller, call_id), §5.4.1,
  // within the caller's reply window.
  ReplyWindow& w = reply_windows_[p.rpc.caller];
  if (p.rpc.done_below > w.done_below) {
    w.done_below = p.rpc.done_below;
    w.FreeFront(w.LowerBound(w.done_below) - (w.replies.begin() + w.head));
  }
  if (p.rpc.call_id < w.done_below) {
    stale_requests_++;  // a late copy of a call the caller has finished
    return;
  }
  auto r = w.LowerBound(p.rpc.call_id);
  if (r != w.replies.end() && r->call_id == p.rpc.call_id) {
    dup_requests_++;
    if (r->response != nullptr) {
      Send(MakeResponsePacket(p, r->response));
    }
    // In-flight duplicates are dropped; the response will reach the caller
    // when the original execution completes.
    return;
  }
  w.replies.insert(r, CachedReply{p.rpc.call_id, nullptr});
  if (w.live() > kMaxRepliesPerCaller) {
    w.FreeFront(1);
  }
  if (request_handler_) {
    request_handler_(std::move(p));
  }
}

}  // namespace switchfs::net
