#include "src/tracker/tracker_server.h"

#include <memory>
#include <utility>

namespace switchfs::tracker {

sim::Task<void> TrackerServer::Handle(net::Packet p) {
  auto resp = std::make_shared<core::TrackerResp>();
  const auto* op = net::MsgAs<core::TrackerOp>(p.body);
  if (op == nullptr) {
    // Malformed or unknown body: reply ok=false instead of staying silent —
    // a silent drop leaves the caller's RPC retransmitting until its budget
    // runs out.
    rpc_.Respond(p, resp);
    co_return;
  }
  ops_++;
  co_await cpu_.Run(costs_->tracker_packet_cost);
  switch (op->op) {
    case net::DsOp::kQuery:
      resp->present = dirty_set_.Query(op->fp);
      resp->ok = true;
      break;
    case net::DsOp::kInsert:
      resp->ok = !force_overflow_ && dirty_set_.Insert(op->fp);
      break;
    case net::DsOp::kRemove:
      resp->ok = dirty_set_.Remove(op->fps, op->origin_server, op->remove_seq);
      break;
    default:
      break;  // unknown op: ok stays false
  }
  // Chain propagation: writes flow downstream before the ack; the remove is
  // forwarded even when locally stale so every replica's per-origin sequence
  // bookkeeping advances in the same order.
  if (successor_ != net::kInvalidNode &&
      (op->op == net::DsOp::kInsert || op->op == net::DsOp::kRemove)) {
    net::CallOptions hop;
    hop.timeout = forward_timeout_;
    hop.max_attempts = forward_attempts_;
    auto r = co_await rpc_.Call(successor_, std::make_shared<core::TrackerOp>(*op),
                                hop);
    if (!r.ok()) {
      resp->ok = false;
      resp->chain_fault = true;
      resp->fault_node = successor_;
    } else if (const auto* down = net::MsgAs<core::TrackerResp>(*r)) {
      resp->ok = resp->ok && down->ok;
      resp->chain_fault = down->chain_fault;
      resp->fault_node = down->fault_node;
    } else {
      resp->ok = false;
    }
  }
  rpc_.Respond(p, resp);
}

}  // namespace switchfs::tracker
