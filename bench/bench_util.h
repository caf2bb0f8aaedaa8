// Shared helpers for the figure/table reproduction benches: system
// factories, op-count scaling, and aligned table output. Every bench prints
// the rows/series of its paper figure.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/baseline.h"
#include "src/core/cluster.h"
#include "src/workload/generator.h"
#include "src/workload/runner.h"

namespace switchfs::bench {

// SFS_BENCH_SCALE scales op counts: a number (e.g. 0.2) or the presets
// "small" (0.2, CI smoke runs) / "full" (1.0).
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("SFS_BENCH_SCALE");
    if (env == nullptr) {
      return 1.0;
    }
    const std::string s(env);
    if (s == "small") {
      return 0.2;
    }
    if (s == "full") {
      return 1.0;
    }
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

inline uint64_t ScaledOps(uint64_t n) {
  const auto scaled = static_cast<uint64_t>(static_cast<double>(n) * Scale());
  return scaled < 500 ? 500 : scaled;
}

inline std::unique_ptr<core::Cluster> MakeSwitchFs(
    uint32_t servers, int cores = 4,
    core::TrackerMode tracker = core::TrackerMode::kSwitch,
    bool async_updates = true, bool compaction = true, uint64_t seed = 42) {
  core::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.cores_per_server = cores;
  cfg.tracker = tracker;
  cfg.async_updates = async_updates;
  cfg.compaction = compaction;
  cfg.seed = seed;
  // Modest dirty-set sizing keeps construction fast; no overflow occurs in
  // the evaluation workloads (matching §7.1 "no dirty-set overflow occurs").
  cfg.switch_config.dirty_set.num_stages = 10;
  cfg.switch_config.dirty_set.registers_per_stage = 1 << 14;
  return std::make_unique<core::Cluster>(cfg);
}

inline std::unique_ptr<baselines::BaselineCluster> MakeBaseline(
    baselines::SystemKind kind, uint32_t servers, int cores = 4,
    uint64_t seed = 42) {
  baselines::BaselineConfig cfg;
  cfg.kind = kind;
  cfg.num_servers = servers;
  cfg.cores_per_server = cores;
  cfg.seed = seed;
  return std::make_unique<baselines::BaselineCluster>(cfg);
}

// Factory by display name; nullptr tracker args use defaults.
inline std::unique_ptr<core::FsWorld> MakeWorld(const std::string& system,
                                                uint32_t servers,
                                                int cores = 4) {
  if (system == "SwitchFS") {
    return MakeSwitchFs(servers, cores);
  }
  if (system == "Emulated-InfiniFS") {
    return MakeBaseline(baselines::SystemKind::kEInfiniFS, servers, cores);
  }
  if (system == "Emulated-CFS") {
    return MakeBaseline(baselines::SystemKind::kECfs, servers, cores);
  }
  if (system == "CephFS") {
    return MakeBaseline(baselines::SystemKind::kCephFS, servers, cores);
  }
  if (system == "IndexFS") {
    return MakeBaseline(baselines::SystemKind::kIndexFS, servers, cores);
  }
  std::fprintf(stderr, "unknown system %s\n", system.c_str());
  std::abort();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintKops(const char* label, double ops_per_sec) {
  std::printf("%-22s %10.1f Kops/s\n", label, ops_per_sec / 1e3);
}

}  // namespace switchfs::bench

#endif  // BENCH_BENCH_UTIL_H_
