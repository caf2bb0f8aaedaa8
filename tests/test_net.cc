// Tests for the simulated network fabric and the RPC layer: delivery
// latency, multicast expansion, fault injection, retransmission, duplicate
// suppression within per-caller reply windows, and out-of-band response
// caching.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/net/rpc.h"
#include "src/sim/costs.h"
#include "src/sim/simulator.h"

namespace switchfs::net {
namespace {

struct PingMsg : Message {
  static constexpr uint32_t kType = 9001;
  explicit PingMsg(int v) : Message(kType), value(v) {}
  int value;
};

struct PongMsg : Message {
  static constexpr uint32_t kType = 9002;
  explicit PongMsg(int v) : Message(kType), value(v) {}
  int value;
};

class Harness {
 public:
  Harness() : costs_(), net_(&sim_, &costs_, /*seed=*/42), sw_(costs_.plain_switch_delay) {
    costs_.link_jitter = 0;  // deterministic latency for timing assertions
    net_.SetSwitch(&sw_);
  }

  sim::Simulator sim_;
  sim::CostModel costs_;
  Network net_;
  PlainSwitch sw_;
};

class Sink : public Node {
 public:
  void HandlePacket(Packet p) override { received.push_back(std::move(p)); }
  std::vector<Packet> received;
};

TEST(Network, DeliversThroughSwitchWithExpectedLatency) {
  Harness h;
  Sink a;
  Sink b;
  NodeId ida = h.net_.Register(&a);
  NodeId idb = h.net_.Register(&b);
  (void)ida;

  Packet p;
  p.src = ida;
  p.dst = idb;
  h.net_.Send(p);
  h.sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(a.received.empty());
  // link + switch + link
  EXPECT_EQ(h.sim_.Now(),
            2 * h.costs_.link_latency + h.costs_.plain_switch_delay);
}

TEST(Network, ServerMulticastExpandsToGroupExceptOrigin) {
  Harness h;
  Sink s0;
  Sink s1;
  Sink s2;
  NodeId i0 = h.net_.Register(&s0);
  NodeId i1 = h.net_.Register(&s1);
  NodeId i2 = h.net_.Register(&s2);
  h.sw_.SetServerGroup({i0, i1, i2});

  Packet p;
  p.src = i0;
  p.dst = kServerMulticast;
  p.ds.op = DsOp::kRemove;
  p.ds.origin = i0;
  h.net_.Send(p);
  h.sim_.Run();
  EXPECT_TRUE(s0.received.empty());
  EXPECT_EQ(s1.received.size(), 1u);
  EXPECT_EQ(s2.received.size(), 1u);
}

TEST(Network, LossDropsPackets) {
  Harness h;
  Sink a;
  Sink b;
  NodeId ida = h.net_.Register(&a);
  NodeId idb = h.net_.Register(&b);
  h.net_.SetFaults({.loss_probability = 0.5});
  for (int i = 0; i < 1000; ++i) {
    Packet p;
    p.src = ida;
    p.dst = idb;
    h.net_.Send(p);
  }
  h.sim_.Run();
  // Two hops at 50% each => ~25% delivery.
  EXPECT_GT(b.received.size(), 150u);
  EXPECT_LT(b.received.size(), 400u);
  EXPECT_GT(h.net_.stats().packets_dropped, 0u);
}

TEST(Network, DuplicationDeliversExtraCopies) {
  Harness h;
  Sink a;
  Sink b;
  NodeId ida = h.net_.Register(&a);
  NodeId idb = h.net_.Register(&b);
  h.net_.SetFaults({.duplicate_probability = 0.5});
  for (int i = 0; i < 500; ++i) {
    Packet p;
    p.src = ida;
    p.dst = idb;
    h.net_.Send(p);
  }
  h.sim_.Run();
  EXPECT_GT(b.received.size(), 600u);  // ~500 * (1.5)^2 hops-ish
  EXPECT_GT(h.net_.stats().packets_duplicated, 0u);
}

TEST(Network, SwitchDownDropsEverything) {
  Harness h;
  Sink a;
  Sink b;
  NodeId ida = h.net_.Register(&a);
  NodeId idb = h.net_.Register(&b);
  h.net_.SetSwitchDown(true);
  Packet p;
  p.src = ida;
  p.dst = idb;
  h.net_.Send(p);
  h.sim_.Run();
  EXPECT_TRUE(b.received.empty());
}

TEST(Network, RebindSwapsNodeInPlace) {
  Harness h;
  Sink a;
  Sink b1;
  Sink b2;
  NodeId ida = h.net_.Register(&a);
  NodeId idb = h.net_.Register(&b1);
  h.net_.Rebind(idb, &b2);
  Packet p;
  p.src = ida;
  p.dst = idb;
  h.net_.Send(p);
  h.sim_.Run();
  EXPECT_TRUE(b1.received.empty());
  EXPECT_EQ(b2.received.size(), 1u);
}

// --- RPC tests ---

class RpcHarness : public Harness {
 public:
  RpcHarness() : client_(&sim_, &net_), server_(&sim_, &net_) {
    server_.SetRequestHandler([this](Packet p) {
      requests_seen_++;
      auto* ping = MsgAs<PingMsg>(p.body);
      ASSERT_NE(ping, nullptr);
      server_.Respond(p, MakeMsg<PongMsg>(ping->value * 2));
    });
  }

  RpcEndpoint client_;
  RpcEndpoint server_;
  int requests_seen_ = 0;
};

TEST(Rpc, BasicCallResponse) {
  RpcHarness h;
  StatusOr<MsgPtr> result = NotFoundError();
  sim::Spawn([](RpcHarness* h, StatusOr<MsgPtr>* out) -> sim::Task<void> {
    *out = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(21));
  }(&h, &result));
  h.sim_.Run();
  ASSERT_TRUE(result.ok());
  const auto* pong = MsgAs<PongMsg>(*result);
  ASSERT_NE(pong, nullptr);
  EXPECT_EQ(pong->value, 42);
}

TEST(Rpc, RetransmitsUntilResponseUnderLoss) {
  RpcHarness h;
  h.net_.SetFaults({.loss_probability = 0.4});
  int ok_count = 0;
  constexpr int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) {
    sim::Spawn([](RpcHarness* h, int* ok) -> sim::Task<void> {
      CallOptions opts;
      opts.timeout = sim::Microseconds(20);
      opts.max_attempts = 30;
      auto r = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(1), opts);
      if (r.ok()) {
        (*ok)++;
      }
    }(&h, &ok_count));
  }
  h.sim_.Run();
  EXPECT_EQ(ok_count, kCalls);
  EXPECT_GT(h.client_.retransmits_sent(), 0u);
}

TEST(Rpc, DuplicateRequestsAreSuppressed) {
  RpcHarness h;
  h.net_.SetFaults({.duplicate_probability = 0.6});
  int ok_count = 0;
  constexpr int kCalls = 40;
  for (int i = 0; i < kCalls; ++i) {
    sim::Spawn([](RpcHarness* h, int* ok) -> sim::Task<void> {
      auto r = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(1));
      if (r.ok()) {
        (*ok)++;
      }
    }(&h, &ok_count));
  }
  h.sim_.Run();
  EXPECT_EQ(ok_count, kCalls);
  // The handler must have run exactly once per logical call even though the
  // network injected duplicates.
  EXPECT_EQ(h.requests_seen_, kCalls);
  EXPECT_GT(h.server_.duplicate_requests_seen(), 0u);
}

TEST(Rpc, DuplicatesUnderReorderingRunEachCallOnce) {
  // Jitter lets a duplicate of a finished call arrive after the caller's
  // next request raised the watermark past it: that copy is stale and must
  // be dropped, not executed again.
  RpcHarness h;
  h.net_.SetFaults({.duplicate_probability = 0.5,
                    .reorder_jitter = sim::Microseconds(20)});
  int ok_count = 0;
  constexpr int kChains = 8;
  constexpr int kCallsPerChain = 25;
  for (int c = 0; c < kChains; ++c) {
    sim::Spawn([](RpcHarness* h, int* ok) -> sim::Task<void> {
      for (int i = 0; i < kCallsPerChain; ++i) {
        auto r = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(i));
        if (r.ok()) {
          (*ok)++;
        }
      }
    }(&h, &ok_count));
  }
  h.sim_.Run();
  EXPECT_EQ(ok_count, kChains * kCallsPerChain);
  EXPECT_EQ(h.requests_seen_, kChains * kCallsPerChain);
  EXPECT_GT(h.server_.duplicate_requests_seen(), 0u);
  EXPECT_GT(h.server_.stale_requests_dropped(), 0u);
}

TEST(Rpc, CallTimesOutAgainstDeadServer) {
  RpcHarness h;
  h.server_.SetEnabled(false);
  Status status = OkStatus();
  sim::Spawn([](RpcHarness* h, Status* out) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Microseconds(10);
    opts.max_attempts = 3;
    auto r = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(1), opts);
    *out = r.status();
  }(&h, &status));
  h.sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
}

TEST(Rpc, OutOfBandResponseSatisfiesRetransmittedRequest) {
  // Models SwitchFS's create flow: the server records the response without
  // sending it (first copy rides the switch multicast, which we drop here);
  // the client's retransmit is then answered from the dedup cache.
  Harness h;
  RpcEndpoint client(&h.sim_, &h.net_);
  RpcEndpoint server(&h.sim_, &h.net_);
  int handler_runs = 0;
  server.SetRequestHandler([&](Packet p) {
    handler_runs++;
    server.RecordResponse(p, MakeMsg<PongMsg>(7));  // no packet sent
  });
  StatusOr<MsgPtr> result = NotFoundError();
  sim::Spawn([](RpcEndpoint* c, RpcEndpoint* s,
                StatusOr<MsgPtr>* out) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Microseconds(15);
    opts.max_attempts = 5;
    *out = co_await c->Call(s->id(), MakeMsg<PingMsg>(1), opts);
  }(&client, &server, &result));
  h.sim_.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(MsgAs<PongMsg>(*result)->value, 7);
  EXPECT_EQ(handler_runs, 1);
}

// --- Reply windows ---

// Drives a server endpoint with hand-built requests, so each test picks the
// call ids and watermarks. The handler holds every request until Answer().
class WindowHarness : public Harness {
 public:
  WindowHarness() : server_(&sim_, &net_) {
    caller_id_ = net_.Register(&caller_);
    server_.SetRequestHandler([this](Packet p) {
      handler_runs_++;
      held_.push_back(std::move(p));
    });
  }

  void Request(uint64_t call_id, uint64_t done_below) {
    Packet p;
    p.src = caller_id_;
    p.dst = server_.id();
    p.rpc = RpcHeader{call_id, caller_id_, /*is_response=*/false, done_below};
    p.body = MakeMsg<PingMsg>(static_cast<int>(call_id));
    net_.Send(std::move(p));
    sim_.Run();
  }

  // Responds to every held request with the request's value times ten.
  void Answer() {
    for (const Packet& p : held_) {
      server_.Respond(p, MakeMsg<PongMsg>(MsgAs<PingMsg>(p.body)->value * 10));
    }
    held_.clear();
    sim_.Run();
  }

  size_t cached() const { return server_.cached_replies(caller_id_); }

  Sink caller_;
  NodeId caller_id_ = kInvalidNode;
  RpcEndpoint server_;
  std::vector<Packet> held_;
  int handler_runs_ = 0;
};

TEST(RpcReplyWindow, InFlightDuplicateIsDropped) {
  WindowHarness h;
  h.Request(1, 1);
  h.Request(1, 1);
  EXPECT_EQ(h.handler_runs_, 1);
  EXPECT_EQ(h.server_.duplicate_requests_seen(), 1u);
  EXPECT_TRUE(h.caller_.received.empty());
  h.Answer();
  ASSERT_EQ(h.caller_.received.size(), 1u);
  EXPECT_EQ(MsgAs<PongMsg>(h.caller_.received[0].body)->value, 10);
}

TEST(RpcReplyWindow, CompletedDuplicateIsReplayedFromTheCache) {
  WindowHarness h;
  h.Request(1, 1);
  h.Answer();
  h.Request(1, 1);
  EXPECT_EQ(h.handler_runs_, 1);
  EXPECT_EQ(h.server_.duplicate_requests_seen(), 1u);
  ASSERT_EQ(h.caller_.received.size(), 2u);
  const Packet& replay = h.caller_.received[1];
  EXPECT_TRUE(replay.rpc.is_response);
  EXPECT_EQ(replay.rpc.call_id, 1u);
  EXPECT_EQ(MsgAs<PongMsg>(replay.body)->value, 10);
}

TEST(RpcReplyWindow, LateDuplicateBelowTheWatermarkIsDropped) {
  WindowHarness h;
  h.Request(1, 1);
  h.Answer();
  h.Request(2, 2);  // the caller finished call 1: its reply is freed
  h.Answer();
  EXPECT_EQ(h.cached(), 1u);
  h.Request(1, 1);  // a late network copy of call 1
  EXPECT_EQ(h.handler_runs_, 2);
  EXPECT_EQ(h.server_.stale_requests_dropped(), 1u);
  EXPECT_EQ(h.server_.duplicate_requests_seen(), 0u);
  EXPECT_EQ(h.caller_.received.size(), 2u);  // no replay was sent
}

TEST(RpcReplyWindow, ZeroWatermarkFreesNothing) {
  WindowHarness h;
  h.Request(1, 0);
  h.Answer();
  h.Request(2, 0);
  h.Answer();
  EXPECT_EQ(h.cached(), 2u);
  h.Request(1, 0);
  EXPECT_EQ(h.handler_runs_, 2);
  EXPECT_EQ(h.server_.duplicate_requests_seen(), 1u);
  EXPECT_EQ(h.caller_.received.size(), 3u);  // call 1 replayed
}

TEST(RpcReplyWindow, CallerResetFreesItsEntriesAtTheCallee) {
  Harness h;
  RpcEndpoint client(&h.sim_, &h.net_);
  RpcEndpoint server(&h.sim_, &h.net_);
  int handler_runs = 0;
  server.SetRequestHandler([&](Packet) { handler_runs++; });  // never answers
  CallOptions opts;
  opts.timeout = sim::Milliseconds(1);
  opts.max_attempts = 2;
  std::vector<Status> statuses;
  auto call = [](RpcEndpoint* c, NodeId dst, CallOptions o,
                 std::vector<Status>* out) -> sim::Task<void> {
    auto r = co_await c->Call(dst, MakeMsg<PingMsg>(1), o);
    out->push_back(r.status());
  };
  for (int i = 0; i < 3; ++i) {
    sim::Spawn(call(&client, server.id(), opts, &statuses));
  }
  h.sim_.RunUntil(sim::Microseconds(20));
  EXPECT_EQ(server.cached_replies(client.id()), 3u);

  client.ResetVolatileState();  // the caller crashes and restarts
  sim::Spawn(call(&client, server.id(), opts, &statuses));
  h.sim_.RunUntil(sim::Microseconds(40));
  EXPECT_EQ(handler_runs, 4);
  EXPECT_EQ(server.cached_replies(client.id()), 1u);

  h.sim_.Run();
  ASSERT_EQ(statuses.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(statuses[i].code(), StatusCode::kUnavailable);  // abandoned
  }
  EXPECT_EQ(statuses[3].code(), StatusCode::kTimeout);
}

TEST(RpcReplyWindow, SequentialCallsKeepTheWindowBounded) {
  RpcHarness h;
  constexpr int kCalls = 10000;
  size_t max_cached = 0;
  int ok_count = 0;
  sim::Spawn([](RpcHarness* h, size_t* max_cached,
                int* ok) -> sim::Task<void> {
    for (int i = 0; i < kCalls; ++i) {
      auto r = co_await h->client_.Call(h->server_.id(), MakeMsg<PingMsg>(i));
      if (r.ok()) {
        (*ok)++;
      }
      *max_cached = std::max(*max_cached,
                             h->server_.cached_replies(h->client_.id()));
    }
  }(&h, &max_cached, &ok_count));
  h.sim_.Run();
  EXPECT_EQ(ok_count, kCalls);
  EXPECT_EQ(h.requests_seen_, kCalls);
  EXPECT_GE(max_cached, 1u);
  EXPECT_LE(max_cached, 2u);
}

TEST(Rpc, NotifyReachesRawHandler) {
  Harness h;
  RpcEndpoint a(&h.sim_, &h.net_);
  RpcEndpoint b(&h.sim_, &h.net_);
  int raw_count = 0;
  b.SetRawHandler([&](Packet p) {
    EXPECT_NE(MsgAs<PingMsg>(p.body), nullptr);
    raw_count++;
  });
  a.Notify(b.id(), MakeMsg<PingMsg>(5));
  h.sim_.Run();
  EXPECT_EQ(raw_count, 1);
}

TEST(Rpc, CpuChargingSerializesPacketProcessing) {
  Harness h;
  sim::CpuPool cpu(&h.sim_, 1);
  RpcEndpoint client(&h.sim_, &h.net_);
  RpcEndpoint server(&h.sim_, &h.net_);
  server.SetCpu(&cpu);
  server.SetRequestHandler(
      [&](Packet p) { server.Respond(p, MakeMsg<PongMsg>(0)); });
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    sim::Spawn([](RpcEndpoint* c, RpcEndpoint* s, int* d) -> sim::Task<void> {
      auto r = co_await c->Call(s->id(), MakeMsg<PingMsg>(1));
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        (*d)++;
      }
    }(&client, &server, &done));
  }
  h.sim_.Run();
  EXPECT_EQ(done, 10);
  // 10 requests * (rx + tx) on one core.
  EXPECT_EQ(cpu.busy_time(), 10 * (h.costs_.rx_cost + h.costs_.tx_cost));
}

}  // namespace
}  // namespace switchfs::net
