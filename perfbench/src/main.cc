// perfbench: runs one repetition of a benchmark workload on a fresh SwitchFS
// cluster and prints its raw metrics as one JSON line. perfbench/run.py
// builds this binary, runs it once per repetition (a fresh process each, so
// no repetition inherits another's heap) and reports the medians.
//
//   perfbench --workload <name> --seed <n> [--scale <f>] [--traced]
//             [--trace-out <file>] [--corrupt-model]
//   perfbench --workload <name> --setup-only
//   perfbench --list
//
// Output: {"correct", "attempted", "failed", "failures": {status: n},
//          "sim": {metric: value}, "host": {metric: value}}.
// Exit 1 (and no JSON) when the end-state check fails; 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "calibrate.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "[--scale <f>] [--traced] [--trace-out <file>] "
               "[--corrupt-model]\n       perfbench --workload <name> "
               "--setup-only\n       perfbench --list\n",
               why.c_str());
  std::exit(2);
}

void PrintMap(const char* key, const std::map<std::string, double>& m) {
  std::printf(", \"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}");
}

int Main(int argc, char** argv) {
  std::string workload;
  RepOptions opts;
  bool have_seed = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      for (const WorkloadSpec& w : Workloads()) {
        std::printf(
            "{\"name\": \"%s\", \"rep_seconds\": %g, \"ops\": %llu, "
            "\"offered_kops\": %g, \"slo_us\": %g}\n",
            w.name.c_str(), w.rep_seconds,
            static_cast<unsigned long long>(w.ops), w.offered_kops, w.slo_us);
      }
      return 0;
    }
    if (flag == "--traced") {
      opts.traced = true;
      continue;
    }
    if (flag == "--corrupt-model") {
      opts.corrupt_model = true;
      continue;
    }
    if (flag == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--scale") {
      opts.scale = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace-out") {
      opts.trace_path = v;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == v.c_str())) {
      Usage("bad value for " + flag);
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) {
    Usage("unknown workload '" + workload + "'");
  }
  if (setup_only) {
    const double calib_s = CalibrationSeconds();  // as in RunRepetition
    const double setup_s = MeasureSetupSeconds(*spec);
    std::printf("{\"setup_s\": %.17g, \"calib_s\": %.17g}\n", setup_s,
                calib_s);
    return 0;
  }
  if (!have_seed || !(opts.scale > 0)) {
    Usage("--seed is required and --scale must be > 0");
  }

  RepResult r = RunRepetition(*spec, opts);
  if (!r.correct) {
    std::fprintf(stderr, "perfbench: %s seed %llu: %s\n", spec->name.c_str(),
                 static_cast<unsigned long long>(opts.seed), r.error.c_str());
    return 1;
  }
  r.host["peak_rss_mb"] = PeakRssMb();
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"failures\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const auto& [code, n] : r.failures_by_status) {
    std::printf("%s\"%s\": %llu", sep, code.c_str(),
                static_cast<unsigned long long>(n));
    sep = ", ";
  }
  std::printf("}");
  PrintMap("sim", r.sim);
  PrintMap("host", r.host);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
