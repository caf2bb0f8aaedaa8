// Traced mode: spans kept in memory and written out when the run ends, and
// the forwarding switch that times the data plane from outside.
//
// Two clocks are traced. Simulated-time spans wrap each MetadataService
// call (one span per operation, due time to completion). Host-time spans
// wrap each Simulator::Step and each switch Process call; those run at
// millions per second, so every one is summed but only the first
// `kHostSpanCap` of each kind are kept as spans. The run-queue length of
// every server and the change-log backlog are sampled every
// `kSamplePeriod` of simulated time.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/sim/time.h"

namespace switchfs::core {
class Cluster;
}

namespace perfbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr size_t kHostSpanCap = 20000;
  static constexpr switchfs::sim::SimTime kSamplePeriod =
      switchfs::sim::Microseconds(10);

  struct OpSpan {
    uint64_t id;
    const char* op;
    switchfs::sim::SimTime due;
    switchfs::sim::SimTime end;
    bool ok;
  };
  struct HostSpan {
    int64_t start_ns;  // since the tracer was created
    int64_t dur_ns;
  };

  Tracer() : epoch_ns_(HostNowNs()) {}

  void AddOp(const OpSpan& span) { ops_.push_back(span); }
  void AddStep(int64_t start_ns, int64_t dur_ns) {
    Add(steps_, start_ns, dur_ns);
  }
  void AddSwitch(int64_t start_ns, int64_t dur_ns) {
    Add(switch_, start_ns, dur_ns);
  }
  // Takes a sample if simulated time crossed the next sampling tick.
  void MaybeSample(switchfs::sim::SimTime now, switchfs::core::Cluster& c) {
    if (now >= next_sample_) {
      Sample(now, c);
    }
  }

  uint64_t step_count() const { return steps_.count; }
  int64_t step_ns() const { return steps_.total_ns; }
  uint64_t switch_count() const { return switch_.count; }
  int64_t switch_ns() const { return switch_.total_ns; }
  double runq_mean() const;
  double runq_max() const { return static_cast<double>(runq_max_); }
  double backlog_peak() const { return static_cast<double>(backlog_peak_); }

  // Writes the spans and samples as Chrome trace-event JSON (loadable in
  // Perfetto). Returns false if the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct HostSeries {
    std::vector<HostSpan> spans;
    uint64_t count = 0;
    int64_t total_ns = 0;
  };
  struct Counter {
    switchfs::sim::SimTime at;
    size_t runq_total;
    size_t backlog;
  };

  void Add(HostSeries& s, int64_t start_ns, int64_t dur_ns) {
    ++s.count;
    s.total_ns += dur_ns;
    if (s.spans.size() < kHostSpanCap) {
      s.spans.push_back({start_ns - epoch_ns_, dur_ns});
    }
  }
  void Sample(switchfs::sim::SimTime now, switchfs::core::Cluster& c);

  int64_t epoch_ns_;
  std::vector<OpSpan> ops_;
  HostSeries steps_;
  HostSeries switch_;
  std::vector<Counter> samples_;
  switchfs::sim::SimTime next_sample_ = 0;
  uint64_t runq_sum_ = 0;
  uint64_t runq_n_ = 0;
  size_t runq_max_ = 0;
  size_t backlog_peak_ = 0;
};

// Forwards every packet to the real switch behaviour (the SwitchFS data
// plane). With a tracer it times each Process call on the host clock.
class ForwardingSwitch : public switchfs::net::SwitchBehavior {
 public:
  ForwardingSwitch(switchfs::net::SwitchBehavior* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<switchfs::net::Packet> Process(
      switchfs::net::Packet p) override;
  // The data plane's delay depends on the packet it just processed, which
  // the Network asks for right after Process; forwarding keeps that order.
  switchfs::sim::SimTime PipelineDelay() const override {
    return inner_->PipelineDelay();
  }

 private:
  switchfs::net::SwitchBehavior* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
