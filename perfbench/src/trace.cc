#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "src/core/cluster.h"

namespace perfbench {

using switchfs::sim::SimTime;

double Tracer::runq_mean() const {
  return runq_n_ == 0 ? 0.0
                      : static_cast<double>(runq_sum_) /
                            static_cast<double>(runq_n_);
}

void Tracer::Sample(SimTime now, switchfs::core::Cluster& c) {
  size_t total = 0;
  for (uint32_t i = 0; i < c.ServerCount(); ++i) {
    const size_t q = c.server(i).cpu().run_queue_length();
    total += q;
    runq_max_ = std::max(runq_max_, q);
    runq_sum_ += q;
    ++runq_n_;
  }
  const size_t backlog = c.TotalPendingChangeLogEntries();
  backlog_peak_ = std::max(backlog_peak_, backlog);
  samples_.push_back({now, total, backlog});
  while (next_sample_ <= now) {
    next_sample_ += kSamplePeriod;
  }
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // pid 1: simulated clock (µs of simulated time); pid 2: host clock.
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"simulated time\"}},\n"
               "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
               "\"args\":{\"name\":\"host time\"}}");
  for (const OpSpan& s : ops_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"ok\":%s}}",
                 s.op, static_cast<double>(s.due) / 1e3,
                 static_cast<double>(s.end - s.due) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 s.ok ? "true" : "false");
  }
  for (const Counter& c : samples_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"C\",\"pid\":1,\"name\":\"queues\",\"ts\":%.3f,"
                 "\"args\":{\"runq_total\":%zu,\"changelog_backlog\":%zu}}",
                 static_cast<double>(c.at) / 1e3, c.runq_total, c.backlog);
  }
  const auto host = [f](const HostSeries& series, int tid, const char* name) {
    for (const HostSpan& s : series.spans) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%d,\"name\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   tid, name, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3);
    }
  };
  host(steps_, 1, "Simulator::Step");
  host(switch_, 2, "DataPlane::Process");
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<switchfs::net::Packet> ForwardingSwitch::Process(
    switchfs::net::Packet p) {
  if (tracer_ == nullptr) {
    return inner_->Process(std::move(p));
  }
  const int64_t start = HostNowNs();
  std::vector<switchfs::net::Packet> out = inner_->Process(std::move(p));
  tracer_->AddSwitch(start, HostNowNs() - start);
  return out;
}

}  // namespace perfbench
