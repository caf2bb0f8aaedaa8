#include "calibrate.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {
namespace {

volatile uint64_t g_sink = 0;  // keeps the kernel's result observable

uint64_t Kernel() {
  uint64_t x = 88172645463325252ULL;
  uint64_t acc = 0;
  for (int round = 0; round < 2; ++round) {
    std::unordered_map<std::string, uint64_t> map;
    std::priority_queue<std::pair<uint64_t, uint64_t>> heap;
    std::vector<std::function<void()>> calls;
    for (int i = 0; i < 60000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      map["k" + std::to_string(x % 50000)] += static_cast<uint64_t>(i);
      heap.push({x % 1000003, static_cast<uint64_t>(i)});
      if (heap.size() > 4096) {
        heap.pop();
      }
      calls.emplace_back([&acc, i] { acc += static_cast<uint64_t>(i); });
    }
    for (const auto& call : calls) {
      call();
    }
    for (const auto& [key, value] : map) {
      acc += value + key.size();
    }
  }
  return acc;
}

}  // namespace

double CalibrationSeconds() {
  double best = 0;
  for (int run = 0; run < 3; ++run) {
    const int64_t start = HostNowNs();
    g_sink = g_sink + Kernel();
    const double s = static_cast<double>(HostNowNs() - start) / 1e9;
    best = run == 0 ? s : std::min(best, s);
  }
  return best;
}

}  // namespace perfbench
