// Fault-tolerance tests (paper §5.4, §A.1): unreliable-network handling
// (loss, duplication, reordering), dirty-set overflow fallback (§7.3.2),
// server crash recovery with WAL replay, switch crash recovery, and crashes
// during aggregation.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/tracker/dedicated_tracker.h"
#include "src/tracker/replicated_tracker.h"
#include "src/tracker/tracker_server.h"
#include "tests/switchfs_test_util.h"

namespace switchfs::core {
namespace {

ClusterConfig FaultyConfig(double loss, double dup, sim::SimTime jitter) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.faults.loss_probability = loss;
  cfg.faults.duplicate_probability = dup;
  cfg.faults.reorder_jitter = jitter;
  return cfg;
}

void CreateManyVerify(FsHarness& fs, int dirs, int files_per_dir) {
  for (int d = 0; d < dirs; ++d) {
    ASSERT_TRUE(fs.Mkdir("/d" + std::to_string(d)).ok()) << d;
  }
  int ok = 0;
  for (int d = 0; d < dirs; ++d) {
    for (int f = 0; f < files_per_dir; ++f) {
      Status s =
          fs.Create("/d" + std::to_string(d) + "/f" + std::to_string(f));
      ASSERT_TRUE(s.ok()) << d << "/" << f << ": " << s.ToString();
      ok++;
    }
  }
  ASSERT_EQ(ok, dirs * files_per_dir);
  for (int d = 0; d < dirs; ++d) {
    auto sd = fs.StatDir("/d" + std::to_string(d));
    ASSERT_TRUE(sd.ok()) << d;
    EXPECT_EQ(sd->size, static_cast<uint64_t>(files_per_dir)) << d;
    auto entries = fs.Readdir("/d" + std::to_string(d));
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<size_t>(files_per_dir));
  }
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
}

TEST(SwitchFsFault, SurvivesPacketLoss) {
  FsHarness fs(FaultyConfig(0.05, 0.0, 0));
  CreateManyVerify(fs, 4, 10);
  EXPECT_GT(fs.cluster.network().stats().packets_dropped, 0u);
}

TEST(SwitchFsFault, SurvivesDuplication) {
  FsHarness fs(FaultyConfig(0.0, 0.10, 0));
  CreateManyVerify(fs, 4, 10);
  EXPECT_GT(fs.cluster.network().stats().packets_duplicated, 0u);
}

TEST(SwitchFsFault, SurvivesReordering) {
  FsHarness fs(FaultyConfig(0.0, 0.0, sim::Microseconds(6)));
  CreateManyVerify(fs, 4, 10);
}

TEST(SwitchFsFault, SurvivesCombinedFaults) {
  FsHarness fs(FaultyConfig(0.03, 0.05, sim::Microseconds(3)));
  CreateManyVerify(fs, 3, 8);
}

TEST(SwitchFsFault, DuplicateRemovesCannotEvictLaterInserts) {
  // §5.4.1: a duplicated remove processed after the aggregation completes
  // must not remove fingerprints inserted by subsequent operations. High
  // duplication probability exercises exactly this path; correctness shows
  // as no lost updates.
  FsHarness fs(FaultyConfig(0.0, 0.3, sim::Microseconds(2)));
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(round)).ok());
    auto sd = fs.StatDir("/d");
    ASSERT_TRUE(sd.ok());
    EXPECT_EQ(sd->size, static_cast<uint64_t>(round + 1));
  }
  EXPECT_GT(fs.cluster.data_plane()->stats().stale_removes +
                fs.cluster.data_plane()->dirty_set(0).stale_removes() +
                fs.cluster.data_plane()->dirty_set(1).stale_removes(),
            0u);
}

TEST(SwitchFsFault, OverflowFallsBackToSynchronousUpdate) {
  // §7.3.2: with inserts forced to fail, every double-inode op redirects to
  // the parent's owner for a synchronous update — and remains correct.
  FsHarness fs;
  fs.cluster.data_plane()->SetForceInsertOverflow(true);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 20u);
  EXPECT_GT(fs.cluster.TotalStats().fallbacks, 0u);
  EXPECT_GT(fs.cluster.data_plane()->stats().insert_fallbacks, 0u);
  // Nothing is pending: the synchronous path applies immediately.
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  ASSERT_TRUE(fs.Unlink("/d/f3").ok());
  sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 19u);
}

// An insert retransmitted while the owner still applies its overflow
// fallback overflows again; the owner drops that copy instead of applying
// the backlog once per retransmit (here the insert-ack timeout is far
// shorter than the apply, so the origin retransmits many times).
TEST(SwitchFsFault, OverflowRetransmitsDoNotReapplyAnInFlightFallback) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.server_template.insert_ack_timeout = sim::Microseconds(1);
  FsHarness fs(cfg);
  fs.cluster.data_plane()->SetForceInsertOverflow(true);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  const uint64_t inserts = fs.cluster.data_plane()->stats().insert_fallbacks;
  const uint64_t applies = fs.cluster.TotalStats().fallbacks;
  ASSERT_TRUE(fs.Create("/d/f").ok());
  const uint64_t redirected =
      fs.cluster.data_plane()->stats().insert_fallbacks - inserts;
  const uint64_t applied = fs.cluster.TotalStats().fallbacks - applies;
  EXPECT_GT(redirected, 3u);
  EXPECT_LT(applied, redirected);
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
}

TEST(SwitchFsFault, ServerCrashRecoversCommittedState) {
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  std::set<std::string> created;
  for (int i = 0; i < 30; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fs.Create("/d/" + name).ok());
    created.insert(name);
  }
  // Crash every server in turn and recover it; all committed state must
  // survive via WAL replay (§5.4.2).
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    fs.cluster.CrashServer(s);
    fs.Run(fs.cluster.RecoverServer(s));
    EXPECT_TRUE(fs.cluster.server(s).serving());
    EXPECT_GT(fs.cluster.server(s).stats().wal_replayed, 0u);
  }
  auto entries = fs.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  std::set<std::string> got;
  for (const DirEntry& e : *entries) {
    got.insert(e.name);
  }
  EXPECT_EQ(got, created);
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 30u);
}

TEST(SwitchFsFault, CrashBeforeAggregationDoesNotLoseDeferredUpdates) {
  // Crash a server while its change-logs still hold un-applied entries; the
  // WAL must rebuild them and recovery must flush them (§A.1).
  ClusterConfig cfg = SmallClusterConfig();
  // Very long timers: pushes/aggregations will not fire on their own.
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  // Issue creates but stop the simulation before background flushes.
  std::vector<Status> results(10, InternalError(""));
  sim::Spawn([](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = co_await c->Create("/d/f" + std::to_string(i));
    }
  }(fs.client.get(), &results));
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(50));
  for (const Status& s : results) {
    ASSERT_TRUE(s.ok());
  }
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // Crash every server (deferred entries live on unknown owners), then
  // recover them all.
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    fs.cluster.CrashServer(s);
  }
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    sim::Spawn(fs.cluster.RecoverServer(s));
  }
  fs.cluster.sim().Run();
  for (uint32_t s = 0; s < fs.cluster.ServerCount(); ++s) {
    ASSERT_TRUE(fs.cluster.server(s).serving());
  }
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 10u);
  auto entries = fs.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 10u);
}

TEST(SwitchFsFault, SwitchCrashRecoveryRestoresConsistency) {
  // §5.4.2 switch failure: all dirty-set state is lost; recovery flushes all
  // change-logs so every directory returns to normal state.
  ClusterConfig cfg = SmallClusterConfig();
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  std::vector<Status> results(12, InternalError(""));
  sim::Spawn([](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = co_await c->Create("/d/f" + std::to_string(i));
    }
  }(fs.client.get(), &results));
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(50));
  for (const Status& s : results) {
    ASSERT_TRUE(s.ok());
  }
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  fs.cluster.CrashSwitch();
  fs.Run(fs.cluster.RecoverSwitch());
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // All deferred updates were applied; reads see them without aggregation.
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 12u);
  // And the system keeps working after recovery.
  ASSERT_TRUE(fs.Create("/d/after").ok());
  sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 13u);
}

TEST(SwitchFsFault, OwnerCrashMidPushDrainsBacklogAfterRestart) {
  // A directory's owner dies while other servers hold deferred updates for
  // it. Their pushes fail; the per-owner pusher must re-arm and drain the
  // backlog once the owner is back — no stranded change-logs.
  ClusterConfig cfg = SmallClusterConfig();
  // Long owner-side quiet period so the drain is attributable to the push
  // path, not the owner's proactive aggregation timer.
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  // Warm the client's path cache with /d so later creates resolve without a
  // lookup at the (about to crash) owner.
  ASSERT_TRUE(fs.Create("/d/warm").ok());
  const psw::Fingerprint dir_fp = FingerprintOf(RootId(), "d");
  const uint32_t owner = fs.cluster.ring().Owner(dir_fp);
  fs.cluster.CrashServer(owner);

  // Creates execute on the file-hash servers; the ones landing on healthy
  // servers commit and defer a parent update toward the dead owner. Issue
  // them concurrently — a create whose executing server is the dead one
  // spins through its retry budget and must not serialize the rest.
  int ok = 0;
  for (int i = 0; i < 24; ++i) {
    sim::Spawn([](SwitchFsClient* c, int i, int* ok) -> sim::Task<void> {
      Status s = co_await c->Create("/d/f" + std::to_string(i));
      if (s.ok()) {
        (*ok)++;
      }
    }(fs.client.get(), i, &ok));
  }
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(200));
  ASSERT_GT(ok, 0);
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  EXPECT_GT(fs.cluster.TotalStats().push_failures, 0u);

  fs.Run(fs.cluster.RecoverServer(owner));
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, static_cast<uint64_t>(ok) + 1);
  auto entries = fs.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(ok) + 1);
}

TEST(SwitchFsFault, RmdirRaceObsoletePushIsTrimmedNotRepushed) {
  // rmdir race (§5.2.3): a source still holding entries for a directory that
  // has since been removed must have its backlog trimmed by the owner's
  // "vanished directory" ack — pending entries drain to zero instead of
  // being re-pushed forever.
  ClusterConfig cfg = SmallClusterConfig();
  // Slow pushes so /e's deferred entries are still pending when it dies.
  cfg.server_template.push_idle_timeout = sim::Milliseconds(5);
  cfg.server_template.owner_quiet_period = sim::Milliseconds(8);
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/e").ok());
  std::vector<Status> results(6, InternalError(""));
  bool removed = false;
  sim::Spawn([](SwitchFsClient* c, std::vector<Status>* out,
                bool* removed) -> sim::Task<void> {
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = co_await c->Create("/e/f" + std::to_string(i));
    }
    for (size_t i = 0; i < out->size(); ++i) {
      co_await c->Unlink("/e/f" + std::to_string(i));
    }
    *removed = (co_await c->Rmdir("/e")).ok();
  }(fs.client.get(), &results, &removed));
  fs.cluster.sim().Run();
  for (const Status& s : results) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ASSERT_TRUE(removed);
  // Whatever entries remained for the removed directory were trimmed (either
  // applied before the rmdir or acked as obsolete) — nothing lingers.
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);
  // And the namespace keeps working.
  ASSERT_TRUE(fs.Mkdir("/e").ok());
  auto sd = fs.StatDir("/e");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 0u);
}

TEST(SwitchFsFault, RenameRaceRebindRetriesAcrossNewOwnerCrash) {
  // §5.2 rename race + new-owner crash: creates race a directory rename, so
  // some commit under the old fingerprint and are still pending when the
  // rename finishes. The new owner then crashes BEFORE the rebound push can
  // land: sources get the kMoved verdict from the old owner's tombstone,
  // re-key their logs, and the re-push toward the dead new owner must
  // retry — not strand — until it recovers. Afterwards every acknowledged
  // create must be observable at the directory's new location.
  ClusterConfig cfg = SmallClusterConfig();
  // Pushes idle long enough that raced entries are still pending when the
  // rename commits (the race window below lasts a few hundred us).
  cfg.server_template.push_idle_timeout = sim::Milliseconds(2);
  FsHarness fs(cfg);
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/b").ok());
  ASSERT_TRUE(fs.Mkdir("/a/d").ok());
  ASSERT_TRUE(fs.Create("/a/d/warm").ok());  // warms the clients' path caches

  const psw::Fingerprint old_fp =
      FingerprintOf(fs.Stat("/a")->id, "d");
  const InodeId b_id = fs.Stat("/b")->id;
  // Pick a destination name whose owner differs from the old owner (same
  // owner would re-create the dir index in place and never need the
  // tombstone) so the cross-server rebind actually happens.
  std::string dst_name;
  for (int i = 0;; ++i) {
    dst_name = "d2_" + std::to_string(i);
    if (fs.cluster.ring().Owner(FingerprintOf(b_id, dst_name)) !=
        fs.cluster.ring().Owner(old_fp)) {
      break;
    }
  }
  const uint32_t new_owner =
      fs.cluster.ring().Owner(FingerprintOf(b_id, dst_name));

  // Concurrent creates from several warmed clients race the rename; the
  // ones that commit between the rename's pre-lock aggregation snapshot and
  // its source-leg commit are exactly the moved_fp race window.
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::unique_ptr<SwitchFsClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(fs.cluster.MakeClient());
  }
  // Warm each extra client's cache on the pre-rename path.
  for (int c = 0; c < kClients; ++c) {
    Status warm = InternalError("");
    sim::Spawn([](SwitchFsClient* cl, int c, Status* out) -> sim::Task<void> {
      *out = co_await cl->Create("/a/d/wc" + std::to_string(c));
    }(clients[c].get(), c, &warm));
    fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(5));
    ASSERT_TRUE(warm.ok());
  }
  int ok_creates = 0;
  bool renamed = false;
  for (int c = 0; c < kClients; ++c) {
    sim::Spawn([](SwitchFsClient* cl, int c, int* ok) -> sim::Task<void> {
      for (int i = 0; i < kPerClient; ++i) {
        Status s =
            co_await cl->Create("/a/d/f" + std::to_string(c) + "_" +
                                std::to_string(i));
        if (s.ok()) {
          (*ok)++;
        }
      }
    }(clients[c].get(), c, &ok_creates));
  }
  sim::Spawn([](sim::Simulator* sm, SwitchFsClient* cl, const std::string dst,
                bool* out) -> sim::Task<void> {
    // A beat after the burst starts, so creates land on both sides of the
    // rename's race window.
    co_await sim::Delay(sm, sim::Microseconds(40));
    *out = (co_await cl->Rename("/a/d", dst)).ok();
  }(&fs.cluster.sim(), fs.client.get(), "/b/" + dst_name, &renamed));
  while (!renamed) {
    fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Microseconds(50));
  }
  // Rename committed: the tombstone is installed at the old owner. Crash the
  // new owner before the 2 ms push-idle timers fire, so every raced entry's
  // rebound push finds it dead.
  fs.cluster.CrashServer(new_owner);
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(30));

  const auto mid = fs.cluster.TotalStats();
  EXPECT_GT(mid.entries_rebound + mid.agg_entries_rebound, 0u)
      << "the race window was not exercised: no raced entries were rebound";
  EXPECT_GT(mid.push_failures, 0u)
      << "rebound pushes must have been retried against the dead new owner";
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u)
      << "rebound entries must stay pending, not be trimmed";

  fs.Run(fs.cluster.RecoverServer(new_owner));
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u)
      << "rebind retries must drain once the new owner is back";

  // Every acknowledged create (and the five warm files) is observable at the
  // new location: nothing vanished, nothing double-applied.
  auto sd = fs.StatDir("/b/" + dst_name);
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, static_cast<uint64_t>(ok_creates) + 1 + kClients);
  auto entries = fs.Readdir("/b/" + dst_name);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(ok_creates) + 1 + kClients);
}

TEST(SwitchFsFault, RecoveryIsIdempotent) {
  // §A.1: recovering twice (nested crash during recovery) must not
  // double-apply entries.
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  for (int round = 0; round < 2; ++round) {
    fs.cluster.CrashServer(1);
    fs.Run(fs.cluster.RecoverServer(1));
  }
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 10u);
}

TEST(SwitchFsFault, OperationsDuringCrashEventuallyFailOrSucceedCleanly) {
  // Ops racing a crashed server either time out or succeed after recovery;
  // none may corrupt state.
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  fs.cluster.CrashServer(2);
  int ok = 0;
  int failed = 0;
  sim::Spawn([](FsHarness* h, int* ok, int* failed) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      Status s = co_await h->client->Create("/d/x" + std::to_string(i));
      if (s.ok()) {
        (*ok)++;
      } else {
        (*failed)++;
      }
    }
  }(&fs, &ok, &failed));
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(100));
  fs.Run(fs.cluster.RecoverServer(2));
  EXPECT_EQ(ok + failed, 20);
  // Whatever succeeded must be visible and consistent.
  auto entries = fs.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, entries->size());
}

// Tracker-fault tests: push/quiet timers are set to 100 s so deferred
// updates stay pending and the ONLY way a read can observe them is through
// the tracker. That also means these tests must never drain the simulator
// with Run() (which would fast-forward 100 s and fire the masked timers) —
// all work runs in bounded RunUntil windows.
sim::SimTime RunWindow(FsHarness& fs, sim::SimTime window,
                       sim::Task<void> script) {
  sim::Spawn(std::move(script));
  return fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + window);
}

struct DirCheck {
  Status stat_status = InternalError("not run");
  uint64_t size = 0;
  Status list_status = InternalError("not run");
  size_t entries = 0;
};

sim::Task<void> CheckDirs(SwitchFsClient* c, std::vector<std::string> dirs,
                          std::vector<DirCheck>* out) {
  for (size_t i = 0; i < dirs.size(); ++i) {
    auto sd = co_await c->StatDir(dirs[i]);
    (*out)[i].stat_status = sd.status();
    if (sd.ok()) {
      (*out)[i].size = sd->size;
    }
    auto listing = co_await c->Readdir(dirs[i]);
    (*out)[i].list_status = listing.status();
    if (listing.ok()) {
      (*out)[i].entries = listing->size();
    }
  }
}

// Replicated tracker group (§7.3.3 extension): killing the chain's head
// mid-burst must not lose a single dirty-set entry. If the reconstructed
// dirty set dropped an entry, some directory below would serve a stale
// size. Invariants checked test_property_consistency style: (I1) size ==
// |entries| == acked creates per directory, (I3) no change-log entries
// linger after the reads.
TEST(SwitchFsFault, ReplicatedTrackerHeadCrashMidBurstLosesNoEntries) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.tracker = TrackerMode::kReplicated;
  cfg.tracker_replicas = 3;
  // Deferred updates stay pending: no proactive pushes or quiet-period
  // aggregations to mask a lost tracker entry.
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);
  auto* rep = fs.cluster.replicated_tracker();
  ASSERT_NE(rep, nullptr);

  constexpr int kDirs = 4;
  constexpr int kFilesPerDir = 10;
  std::vector<std::string> dirs;
  std::vector<Status> mkdirs(kDirs, InternalError(""));
  for (int d = 0; d < kDirs; ++d) {
    dirs.push_back("/d" + std::to_string(d));
  }
  RunWindow(fs, sim::Milliseconds(20),
            [](SwitchFsClient* c, std::vector<std::string> ds,
               std::vector<Status>* out) -> sim::Task<void> {
              for (size_t i = 0; i < ds.size(); ++i) {
                (*out)[i] = co_await c->Mkdir(ds[i]);
              }
            }(fs.client.get(), dirs, &mkdirs));
  for (const Status& s : mkdirs) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // Burst of creates; the head dies while they are in flight.
  std::vector<Status> results(kDirs * kFilesPerDir, InternalError(""));
  sim::Spawn([](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
    for (size_t i = 0; i < out->size(); ++i) {
      const std::string path = "/d" + std::to_string(i % kDirs) + "/f" +
                               std::to_string(i / kDirs);
      (*out)[i] = co_await c->Create(path);
    }
  }(fs.client.get(), &results));
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Microseconds(400));

  const int old_head = rep->head_index();
  rep->CrashNode(old_head);
  // The burst finishes through lazy detection + failover.
  fs.cluster.sim().RunUntil(fs.cluster.sim().Now() + sim::Milliseconds(100));

  for (const Status& s : results) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_EQ(rep->failovers(), 1u);
  EXPECT_FALSE(rep->rebuilding());
  EXPECT_EQ(rep->chain().size(), 2u);
  EXPECT_NE(rep->head_index(), old_head);
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // Every directory read must observe every acked create — possible only if
  // the rebuilt tracker kept all scattered directories (no lost entries).
  std::vector<DirCheck> checks(dirs.size());
  RunWindow(fs, sim::Milliseconds(100),
            CheckDirs(fs.client.get(), dirs, &checks));
  for (size_t d = 0; d < checks.size(); ++d) {
    ASSERT_TRUE(checks[d].stat_status.ok()) << dirs[d];
    EXPECT_EQ(checks[d].size, static_cast<uint64_t>(kFilesPerDir)) << dirs[d];
    ASSERT_TRUE(checks[d].list_status.ok()) << dirs[d];
    EXPECT_EQ(checks[d].entries, static_cast<size_t>(kFilesPerDir)) << dirs[d];
  }
  // The mkdirs' own deferred updates against "/" drain the same way.
  std::vector<DirCheck> root_check(1);
  RunWindow(fs, sim::Milliseconds(100),
            CheckDirs(fs.client.get(), {"/"}, &root_check));
  ASSERT_TRUE(root_check[0].stat_status.ok());
  EXPECT_EQ(root_check[0].size, static_cast<uint64_t>(kDirs));
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // And the cluster keeps serving through the shortened chain.
  ASSERT_TRUE(fs.Create("/d0/after_failover").ok());
  auto sd = fs.StatDir("/d0");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, static_cast<uint64_t>(kFilesPerDir) + 1);
}

// The dedicated tracker is a single point of failure: while it is down,
// inserts degrade to synchronous fallbacks (correct but slow). Operator
// recovery restarts it empty and reconstructs the set from the servers'
// pending change-logs, after which reads observe every deferred update.
TEST(SwitchFsFault, DedicatedTrackerCrashRecoveryRebuildsDirtySet) {
  ClusterConfig cfg = SmallClusterConfig();
  cfg.tracker = TrackerMode::kDedicatedServer;
  cfg.server_template.push_idle_timeout = sim::Seconds(100);
  cfg.server_template.owner_quiet_period = sim::Seconds(100);
  cfg.server_template.push_mtu_entries = 1000000;
  FsHarness fs(cfg);

  // Setup + 8 pre-crash creates whose deferred updates stay pending.
  std::vector<Status> pre(10, InternalError(""));
  RunWindow(fs, sim::Milliseconds(20),
            [](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
              (*out)[0] = co_await c->Mkdir("/d");
              (*out)[1] = co_await c->Mkdir("/e");
              for (int i = 0; i < 8; ++i) {
                (*out)[2 + i] = co_await c->Create("/d/pre" + std::to_string(i));
              }
            }(fs.client.get(), &pre));
  for (const Status& s : pre) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ASSERT_GT(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  fs.cluster.tracker()->Crash();
  // Ops during the outage succeed via the synchronous fallback (against a
  // different directory so /d's backlog is untouched by the fallback flush).
  std::vector<Status> during(4, InternalError(""));
  RunWindow(fs, sim::Milliseconds(100),
            [](SwitchFsClient* c, std::vector<Status>* out) -> sim::Task<void> {
              for (size_t i = 0; i < out->size(); ++i) {
                (*out)[i] = co_await c->Create("/e/x" + std::to_string(i));
              }
            }(fs.client.get(), &during));
  for (const Status& s : during) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_GT(fs.cluster.TotalStats().fallbacks, 0u);

  // Operator-driven recovery: restart + reconstruct from server snapshots.
  bool recovered = false;
  RunWindow(fs, sim::Milliseconds(100),
            [](Cluster* c, bool* out) -> sim::Task<void> {
              co_await c->dedicated_tracker()->RecoverAndRebuild();
              *out = true;
            }(&fs.cluster, &recovered));
  ASSERT_TRUE(recovered);
  EXPECT_GT(fs.cluster.dedicated_tracker()->reconstructed_entries(), 0u);

  // Reads now observe every pre-crash deferred update via the rebuilt set.
  std::vector<DirCheck> checks(3);
  RunWindow(fs, sim::Milliseconds(100),
            CheckDirs(fs.client.get(), {"/d", "/e", "/"}, &checks));
  ASSERT_TRUE(checks[0].stat_status.ok());
  EXPECT_EQ(checks[0].size, 8u);
  EXPECT_EQ(checks[0].entries, 8u);
  ASSERT_TRUE(checks[1].stat_status.ok());
  EXPECT_EQ(checks[1].size, 4u);
  ASSERT_TRUE(checks[2].stat_status.ok());
  EXPECT_EQ(checks[2].size, 2u);
  EXPECT_EQ(fs.cluster.TotalPendingChangeLogEntries(), 0u);

  // Keeps serving post-recovery — and the full drain inside these helpers
  // retires the parked long timers so teardown is quiescent.
  ASSERT_TRUE(fs.Create("/d/after_recovery").ok());
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 9u);
}

TEST(SwitchFsFault, ReconfigurationMigratesAndKeepsServing) {
  // §5.5/§A.3: stop-the-world reconfiguration. Add a server; all metadata
  // must remain reachable and balanced afterward.
  FsHarness fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fs.Create("/d/f" + std::to_string(i)).ok());
  }
  const uint32_t before = fs.cluster.ServerCount();
  fs.Run(fs.cluster.AddServerAndRebalance());
  EXPECT_EQ(fs.cluster.ServerCount(), before + 1);
  // New server owns some portion of the namespace.
  EXPECT_GT(fs.cluster.server(before).KvSize(), 0u);
  // Everything is still reachable; ops keep working.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fs.Stat("/d/f" + std::to_string(i)).ok()) << i;
  }
  auto sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 40u);
  ASSERT_TRUE(fs.Create("/d/post_reconfig").ok());
  ASSERT_TRUE(fs.Unlink("/d/f0").ok());
  sd = fs.StatDir("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 40u);
}

Status LinkAt(FsHarness& fs, const std::string& src, const std::string& dst) {
  Status out = InternalError("not run");
  fs.Run([](SwitchFsClient* c, std::string s, std::string d,
            Status* o) -> sim::Task<void> {
    *o = co_await c->Link(s, d);
  }(fs.client.get(), src, dst, &out));
  return out;
}

Status SetAttrAt(FsHarness& fs, const std::string& path,
                 const AttrDelta& delta) {
  Status out = InternalError("not run");
  fs.Run([](SwitchFsClient* c, std::string p, AttrDelta d,
            Status* o) -> sim::Task<void> {
    *o = co_await c->SetAttr(p, d);
  }(fs.client.get(), path, delta, &out));
  return out;
}

std::vector<Status> BulkInsertAt(FsHarness& fs, const std::string& dir,
                                 const std::vector<std::string>& names) {
  std::vector<Status> out;
  fs.Run([](SwitchFsClient* c, std::string d, std::vector<std::string> n,
            std::vector<Status>* o) -> sim::Task<void> {
    auto handle = co_await c->OpenDir(d);
    if (!handle.ok()) {
      o->assign(n.size(), handle.status());
      co_return;
    }
    *o = co_await c->BulkInsert(*handle, n);
    (void)co_await c->CloseDir(*handle);
  }(fs.client.get(), dir, names, &out));
  return out;
}

std::set<std::string> Names(const std::vector<DirEntry>& entries) {
  std::set<std::string> names;
  for (const DirEntry& e : entries) {
    names.insert(e.name);
  }
  return names;
}

TEST(SwitchFsFault, ReplayReproducesRuntimeKv) {
  // Every committed mutation kind, then a crash and recovery of each server
  // in turn: replay must rebuild exactly the rows the runtime left.
  FsHarness fs;
  for (const char* d : {"/a", "/b", "/c"}) {
    ASSERT_TRUE(fs.Mkdir(d).ok()) << d;
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fs.Create("/a/f" + std::to_string(i)).ok()) << i;
  }
  ASSERT_TRUE(fs.Mkdir("/a/sub").ok());
  ASSERT_TRUE(fs.Create("/a/sub/x").ok());
  ASSERT_TRUE(fs.Create("/a/sub/y").ok());
  ASSERT_TRUE(fs.Unlink("/a/f0").ok());
  ASSERT_TRUE(fs.Mkdir("/c/gone").ok());
  ASSERT_TRUE(fs.Rmdir("/c/gone").ok());
  ASSERT_TRUE(fs.Rename("/a/f1", "/b/f1r").ok());     // file rename
  ASSERT_TRUE(fs.Rename("/a/sub", "/b/sub2").ok());   // directory rename
  ASSERT_TRUE(LinkAt(fs, "/a/f2", "/c/l1").ok());
  ASSERT_TRUE(LinkAt(fs, "/a/f2", "/c/l2").ok());
  ASSERT_TRUE(fs.Unlink("/c/l1").ok());               // unlink of a link
  AttrDelta chmod;
  chmod.set_mode = true;
  chmod.mode = 0600;
  ASSERT_TRUE(SetAttrAt(fs, "/a/f3", chmod).ok());
  ASSERT_TRUE(SetAttrAt(fs, "/b", chmod).ok());       // directory setattr
  const std::vector<std::string> bulk = {"k0", "k1", "k2", "k3"};
  for (const Status& st : BulkInsertAt(fs, "/c", bulk)) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  // Settle every directory (reads force the pending aggregations).
  for (const char* d : {"/", "/a", "/b", "/c", "/b/sub2"}) {
    ASSERT_TRUE(fs.Readdir(d).ok()) << d;
  }

  ExpectReplayReproducesKv(fs);

  auto c = fs.Readdir("/c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(Names(*c),
            (std::set<std::string>{"l2", "k0", "k1", "k2", "k3"}));
  auto sub = fs.Readdir("/b/sub2");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(Names(*sub), (std::set<std::string>{"x", "y"}));
}

TEST(SwitchFsFault, RenameAwayCrashRenameBack) {
  // A directory renamed to another owner leaves no rows at its old owner,
  // even after that owner replays its WAL: when the directory comes back,
  // its listing is exactly what moved back with it.
  FsHarness fs;
  const HashRing& ring = fs.cluster.ring();
  int n = 0;
  while (ring.Owner(FingerprintOf(RootId(), "a" + std::to_string(n))) ==
         ring.Owner(FingerprintOf(RootId(), "b" + std::to_string(n)))) {
    ++n;
  }
  const std::string a = "/a" + std::to_string(n);
  const std::string b = "/b" + std::to_string(n);
  const uint32_t old_owner =
      ring.Owner(FingerprintOf(RootId(), "a" + std::to_string(n)));
  ASSERT_TRUE(fs.Mkdir(a).ok());
  ASSERT_TRUE(fs.Create(a + "/f1").ok());
  ASSERT_TRUE(fs.Create(a + "/f2").ok());
  ASSERT_TRUE(fs.Rename(a, b).ok());
  fs.cluster.CrashServer(old_owner);
  fs.Run(fs.cluster.RecoverServer(old_owner));
  ASSERT_TRUE(fs.Unlink(b + "/f1").ok());
  ASSERT_TRUE(fs.Rename(b, a).ok());

  auto listing = fs.Readdir(a);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(Names(*listing), (std::set<std::string>{"f2"}));
  auto sd = fs.StatDir(a);
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 1u);
}

TEST(SwitchFsFault, RootOwnerCrashKeepsRootListing) {
  // The root is seeded, not logged: its owner must seed it before replaying
  // the WAL, or every replayed entry of "/" has no directory to land in.
  FsHarness fs;
  std::set<std::string> made;
  for (int d = 0; d < 6; ++d) {
    const std::string name = "d" + std::to_string(d);
    ASSERT_TRUE(fs.Mkdir("/" + name).ok()) << name;
    made.insert(name);
  }
  const uint32_t owner =
      fs.cluster.ring().Owner(FingerprintOf(InodeId{}, "/"));
  fs.cluster.CrashServer(owner);
  fs.Run(fs.cluster.RecoverServer(owner));

  auto listing = fs.Readdir("/");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(Names(*listing), made);
  auto sd = fs.StatDir("/");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd->size, 6u);
}

}  // namespace
}  // namespace switchfs::core
