// Shared fixture for SwitchFS cluster tests: builds a small cluster, runs
// client coroutines to completion, and provides quiesce/verify helpers.
#ifndef TESTS_SWITCHFS_TEST_UTIL_H_
#define TESTS_SWITCHFS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cluster.h"

namespace switchfs::core {

inline ClusterConfig SmallClusterConfig(uint32_t servers = 4) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.cores_per_server = 4;
  // Keep the switch model small so tests construct quickly.
  cfg.switch_config.dirty_set.num_stages = 6;
  cfg.switch_config.dirty_set.registers_per_stage = 4096;
  cfg.switch_config.num_pipes = 2;
  return cfg;
}

class FsHarness {
 public:
  explicit FsHarness(ClusterConfig cfg = SmallClusterConfig())
      : cluster(std::move(cfg)), client(cluster.MakeClient()) {}

  // Runs a client script to completion, then drains the simulation (pushes,
  // proactive aggregations, timers) so post-conditions are stable.
  void Run(sim::Task<void> script) {
    sim::Spawn(std::move(script));
    cluster.sim().Run();
  }

  Status Mkdir(const std::string& path) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p, Status* o) -> sim::Task<void> {
      *o = co_await c->Mkdir(p);
    }(client.get(), path, &out));
    return out;
  }
  Status Create(const std::string& path) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p, Status* o) -> sim::Task<void> {
      *o = co_await c->Create(p);
    }(client.get(), path, &out));
    return out;
  }
  Status Unlink(const std::string& path) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p, Status* o) -> sim::Task<void> {
      *o = co_await c->Unlink(p);
    }(client.get(), path, &out));
    return out;
  }
  Status Rmdir(const std::string& path) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p, Status* o) -> sim::Task<void> {
      *o = co_await c->Rmdir(p);
    }(client.get(), path, &out));
    return out;
  }
  StatusOr<Attr> Stat(const std::string& path) {
    StatusOr<Attr> out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p,
           StatusOr<Attr>* o) -> sim::Task<void> {
      *o = co_await c->Stat(p);
    }(client.get(), path, &out));
    return out;
  }
  StatusOr<Attr> StatDir(const std::string& path) {
    StatusOr<Attr> out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p,
           StatusOr<Attr>* o) -> sim::Task<void> {
      *o = co_await c->StatDir(p);
    }(client.get(), path, &out));
    return out;
  }
  StatusOr<std::vector<DirEntry>> Readdir(const std::string& path) {
    StatusOr<std::vector<DirEntry>> out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string p,
           StatusOr<std::vector<DirEntry>>* o) -> sim::Task<void> {
      *o = co_await c->Readdir(p);
    }(client.get(), path, &out));
    return out;
  }
  Status Rename(const std::string& from, const std::string& to) {
    Status out = InternalError("not run");
    Run([](SwitchFsClient* c, const std::string f, const std::string t,
           Status* o) -> sim::Task<void> {
      *o = co_await c->Rename(f, t);
    }(client.get(), from, to, &out));
    return out;
  }

  Cluster cluster;
  std::unique_ptr<SwitchFsClient> client;
};

// One server's KV store, key -> value.
inline std::map<std::string, std::string> DumpKv(const SwitchServer& server) {
  std::map<std::string, std::string> rows;
  server.kv_for_test().ScanPrefix(
      "", [&rows](const std::string& key, const std::string& value) {
        rows.emplace(key, value);
        return true;
      });
  return rows;
}

// Printable form of a binary KV key: the row-kind letter, then hex.
inline std::string KvKeyForDisplay(const std::string& key) {
  std::string out = key.substr(0, 1) + ":";
  for (size_t i = 1; i < key.size(); ++i) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x",
                  static_cast<unsigned char>(key[i]));
    out += buf;
  }
  return out;
}

// Crashes and recovers each server in turn and expects it back with exactly
// the rows it held before the crash: WAL replay must redo every record the
// way the runtime commit did. Call it on a quiesced cluster (no pending
// change-log entries), so recovery has nothing left to flush or aggregate.
inline void ExpectReplayReproducesKv(FsHarness& fs) {
  ASSERT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    const std::map<std::string, std::string> before =
        DumpKv(fs.cluster.server(s));
    fs.cluster.CrashServer(s);
    fs.Run(fs.cluster.RecoverServer(s));
    ASSERT_TRUE(fs.cluster.server(s).serving()) << "server " << s;
    const std::map<std::string, std::string> after =
        DumpKv(fs.cluster.server(s));
    std::vector<std::string> diffs;
    for (const auto& [key, value] : before) {
      auto it = after.find(key);
      if (it == after.end()) {
        diffs.push_back("lost " + KvKeyForDisplay(key));
      } else if (it->second != value) {
        diffs.push_back("changed " + KvKeyForDisplay(key));
      }
    }
    for (const auto& [key, value] : after) {
      if (before.count(key) == 0) {
        diffs.push_back("gained " + KvKeyForDisplay(key));
      }
    }
    if (!diffs.empty()) {
      std::string shown;
      for (size_t i = 0; i < diffs.size() && i < 10; ++i) {
        shown += "\n  " + diffs[i];
      }
      ADD_FAILURE() << "server " << s << ": " << diffs.size()
                    << " row(s) differ after replay" << shown;
    }
  }
}

}  // namespace switchfs::core

#endif  // TESTS_SWITCHFS_TEST_UTIL_H_
