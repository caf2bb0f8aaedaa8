// The benchmark's workloads and the code that runs one repetition of a
// workload against a fresh SwitchFS cluster.
//
// It reaches the system only through public seams: FsWorld /
// MetadataService calls, Simulator::Step, a forwarding SwitchBehavior
// installed with Network::SetSwitch, and the public counters
// (Cluster::TotalStats, DataPlane::stats, Network::stats,
// CpuPool::busy_time / run_queue_length, PendingChangeLogEntries).
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  uint32_t servers = 16;
  int dirs = 1;           // preloaded directories "/dir<i>"
  int files_per_dir = 0;  // preloaded files "f<i>" in each directory
  bool mix = false;       // PanguFS op mix; otherwise fresh-name creates
  // > 0: open loop with Poisson arrivals at this rate; 0: closed loop.
  double offered_kops = 0;
  // Open loop: the p99 latency limit (service-level objective).
  double slo_us = 0;
  uint64_t ops = 0;  // operations per repetition
  // Host seconds one repetition takes on the reference host (4-core x86,
  // see README.md); --seconds / rep_seconds repetitions make one run.
  double rep_seconds = 1;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Every client request is in flight on its own coroutine; 256 clients.
inline constexpr int kInFlight = 256;

struct RepOptions {
  uint64_t seed = 1;      // input seed of this repetition
  double scale = 1.0;     // multiplies WorkloadSpec::ops (self-test: tiny)
  bool traced = false;
  bool corrupt_model = false;  // negative test of the end-state check
  std::string trace_path;      // traced: where the spans are written
};

// Metrics of one repetition, by name. `sim` holds everything measured in
// simulated time or counted by the program; it is a pure function of the
// seed, so a traced and an untraced repetition must agree on every key they
// share. `host` holds host-clock measurements.
struct RepResult {
  bool correct = false;
  std::string error;  // why the end-state check failed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures_by_status;
  std::map<std::string, double> sim;
  std::map<std::string, double> host;
};

RepResult RunRepetition(const WorkloadSpec& spec, const RepOptions& opts);

// Host seconds to build the cluster, preload it and warm the clients (the
// set-up RunRepetition does before it measures), then tear it down.
double MeasureSetupSeconds(const WorkloadSpec& spec);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
