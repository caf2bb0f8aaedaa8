// Fig 12: peak throughput of individual metadata operations vs number of
// metadata servers, on all five systems, under two access patterns:
//  (a) a single large directory (load-balance stress), and
//  (b) 1024 directories (operation-overhead stress).
//
// IndexFS-sim is omitted from the single-large-directory pattern (the paper
// reports IndexFS "consistently crashes with errors" there) and from rmdir
// (its rmdir implementation is incomplete, §7.2.1).
//
// In pattern (a) the SwitchFS create row reads 780 / 1056 / 1224 / 1473
// Kops/s at 4 / 8 / 12 / 16 servers at full scale, 13.1x Emulated-InfiniFS
// (112 Kops/s) at 16 servers; the paper reports up to 13.34x. Creates into
// the one directory share its change-log group lock (docs/architecture.md,
// "Change-log lock compatibility"); on the directory's owner they queue on
// the per-log append mutex, which bounds the row.
//
// In pattern (b) the SwitchFS rmdir row does not grow with the server count
// past 12 servers, unlike every other SwitchFS row. That follows from the
// protocol: every SwitchFS rmdir runs a full aggregation round with
// invalidation (HandleRmdir, Fig 6 steps 4-7), 1.05-1.17 rounds per rmdir,
// and each round collects at every server, so adding servers adds work to
// each rmdir. At SFS_BENCH_SCALE=0.1 (2,000 ops) the row reads
// 469 / 496 / 854 / 837 Kops/s at 4 / 8 / 12 / 16 servers, and aggregation
// retries dominate the short measured window. At full scale (20,000 ops) it
// reads 677 / 830 / 820 / 833 Kops/s. Aggregation retries and fault-free
// push failures (pushes that outlive the fixed RPC timeout budget at a busy
// owner) make a single point move with the cluster seed: over eight seeds
// the full-scale medians are 675 / 820 / 879 / 873 Kops/s, and one seed's
// point lies up to 7% from them.
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace switchfs::bench {
namespace {

struct OpSpec {
  core::OpType op;
  const char* name;
  bool fresh;     // create/mkdir: fresh names
  bool sweep;     // delete/rmdir: each target exactly once
  bool dir_op;    // statdir targets directories
};

const OpSpec kOps[] = {
    {core::OpType::kCreate, "create", true, false, false},
    {core::OpType::kUnlink, "delete", false, true, false},
    {core::OpType::kMkdir, "mkdir", true, false, false},
    {core::OpType::kRmdir, "rmdir", false, true, true},
    {core::OpType::kStat, "stat", false, false, false},
    {core::OpType::kStatDir, "statdir", false, false, true},
};

const char* kSystems[] = {"CephFS", "IndexFS", "Emulated-InfiniFS",
                          "Emulated-CFS", "SwitchFS"};

void RunPattern(const char* title, int num_dirs) {
  PrintHeader(title);
  std::printf("%-10s %-20s %8s %8s %8s %8s\n", "op", "system", "srv=4",
              "srv=8", "srv=12", "srv=16");
  for (const OpSpec& spec : kOps) {
    for (const char* system : kSystems) {
      const bool single_dir = num_dirs == 1;
      if (std::string(system) == "IndexFS" &&
          (single_dir || spec.op == core::OpType::kRmdir)) {
        std::printf("%-10s %-20s %8s %8s %8s %8s\n", spec.name, system, "-",
                    "-", "-", "-");
        continue;
      }
      std::printf("%-10s %-20s", spec.name, system);
      for (uint32_t servers : {4u, 8u, 12u, 16u}) {
        auto world = MakeWorld(system, servers);
        const bool ceph = std::string(system) == "CephFS";
        uint64_t total =
            ScaledOps(spec.op == core::OpType::kStat ||
                              spec.op == core::OpType::kStatDir
                          ? 40000
                          : 20000);
        if (ceph) {
          total = ScaledOps(4000);  // two orders slower; keep wall time sane
        }

        std::unique_ptr<wl::OpStream> stream;
        std::vector<std::string> dirs =
            wl::PreloadDirs(*world, num_dirs, "/dir");
        if (spec.op == core::OpType::kStatDir) {
          // Directory reads need a directory *population*: many dirs even in
          // the single-large-directory setting (a single object cannot be
          // read at Mops/s by construction). Use subdirs of the big dir.
          std::vector<std::string> targets;
          const int n = single_dir ? 512 : num_dirs;
          for (int i = 0; i < n; ++i) {
            targets.push_back((single_dir ? dirs[0] + "/sub" : "/dir") +
                              std::to_string(i));
            if (single_dir) {
              world->PreloadDir(targets.back());
            }
          }
          if (!single_dir) {
            targets = dirs;
          }
          stream = std::make_unique<wl::RandomChoiceStream>(spec.op, targets);
        } else if (spec.op == core::OpType::kRmdir) {
          // Sweep over preloaded empty subdirectories.
          std::vector<std::string> targets;
          for (uint64_t i = 0; i < total + total / 5; ++i) {
            targets.push_back(dirs[i % dirs.size()] + "/rd" +
                              std::to_string(i));
            world->PreloadDir(targets.back());
          }
          stream = std::make_unique<wl::ShuffledOnceStream>(spec.op, targets,
                                                            7);
        } else if (spec.sweep) {
          auto files = wl::PreloadFiles(
              *world, dirs,
              static_cast<int>((total + total / 5) / dirs.size() + 1));
          stream = std::make_unique<wl::ShuffledOnceStream>(spec.op, files, 7);
        } else if (spec.fresh) {
          stream = std::make_unique<wl::FreshNameStream>(spec.op, dirs, "n");
        } else {
          auto files = wl::PreloadFiles(
              *world, dirs, single_dir ? 20000 : 40);
          stream = std::make_unique<wl::RandomChoiceStream>(spec.op, files);
        }

        wl::RunnerConfig rc;
        rc.workers = 256;
        rc.total_ops = total;
        rc.warmup_ops = total / 10;
        wl::RunResult r = wl::RunWorkload(*world, *stream, rc);
        std::printf(" %8.1f", r.ThroughputOpsPerSec() / 1e3);
        std::fflush(stdout);
      }
      std::printf("   Kops/s\n");
    }
  }
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  switchfs::bench::RunPattern(
      "Fig 12(a): throughput, single large directory", 1);
  switchfs::bench::RunPattern(
      "Fig 12(b): throughput, multiple directories (1024 dirs)", 1024);
  return 0;
}
