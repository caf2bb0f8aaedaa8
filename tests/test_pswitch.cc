// Tests for the programmable-switch model: fingerprint packing, register
// actions, the set-associative dirty set (including the paper's Fig 10
// duplicate-cleanup insert walk and §5.4.1 remove-sequence protection), and
// the packet-level data plane behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <vector>

#include "src/common/random.h"
#include "src/net/packet.h"
#include "src/pswitch/data_plane.h"
#include "src/pswitch/dirty_set.h"
#include "src/pswitch/fingerprint.h"
#include "src/pswitch/register_stage.h"

namespace switchfs::psw {
namespace {

TEST(Fingerprint, PacksIndexAndTag) {
  const Fingerprint fp = MakeFingerprint(0x1ffff, 0xdeadbeef);
  EXPECT_EQ(FingerprintIndex(fp), 0x1ffffu);
  EXPECT_EQ(FingerprintTag(fp), 0xdeadbeefu);
  EXPECT_LE(fp, kFingerprintMask);
}

TEST(Fingerprint, FromHashNeverProducesZeroTag) {
  // A hash whose low 32 bits are zero must be remapped.
  const Fingerprint fp = FingerprintFromHash(0xabcd00000000ULL << 4);
  EXPECT_NE(FingerprintTag(fp), 0u);
  for (uint64_t h = 0; h < 1000; ++h) {
    EXPECT_NE(FingerprintTag(FingerprintFromHash(Mix64(h))), 0u);
  }
}

TEST(RegisterStage, QueryInsertRemoveSemantics) {
  RegisterStage stage(16);
  EXPECT_FALSE(stage.Query(3, 7));
  // Insert into empty register succeeds and writes.
  EXPECT_TRUE(stage.ConditionalInsert(3, 7));
  EXPECT_TRUE(stage.Query(3, 7));
  // Re-insert of the same tag succeeds without change.
  EXPECT_TRUE(stage.ConditionalInsert(3, 7));
  // Different tag at an occupied register fails and does not overwrite.
  EXPECT_FALSE(stage.ConditionalInsert(3, 9));
  EXPECT_EQ(stage.ValueAt(3), 7u);
  // Remove of a non-matching tag is a no-op.
  stage.ConditionalRemove(3, 9);
  EXPECT_EQ(stage.ValueAt(3), 7u);
  stage.ConditionalRemove(3, 7);
  EXPECT_EQ(stage.ValueAt(3), 0u);
}

DirtySetConfig SmallConfig(int stages = 4, uint32_t regs = 64) {
  DirtySetConfig c;
  c.num_stages = stages;
  c.registers_per_stage = regs;
  return c;
}

TEST(DirtySet, InsertQueryRemoveRoundTrip) {
  DirtySet ds(SmallConfig());
  const Fingerprint fp = MakeFingerprint(5, 77);
  EXPECT_FALSE(ds.Query(fp));
  EXPECT_TRUE(ds.Insert(fp));
  EXPECT_TRUE(ds.Query(fp));
  ds.RemoveUnchecked(fp);
  EXPECT_FALSE(ds.Query(fp));
}

TEST(DirtySet, SetAssociativityHoldsStageCountEntries) {
  DirtySet ds(SmallConfig(/*stages=*/4));
  // Four distinct tags mapping to the same index fill the set.
  for (uint32_t t = 1; t <= 4; ++t) {
    EXPECT_TRUE(ds.Insert(MakeFingerprint(9, t))) << t;
  }
  // Fifth conflicts: overflow.
  EXPECT_FALSE(ds.Insert(MakeFingerprint(9, 5)));
  EXPECT_EQ(ds.insert_overflows(), 1u);
  // All four are queryable; a different index is unaffected.
  for (uint32_t t = 1; t <= 4; ++t) {
    EXPECT_TRUE(ds.Query(MakeFingerprint(9, t)));
  }
  EXPECT_TRUE(ds.Insert(MakeFingerprint(10, 5)));
}

TEST(DirtySet, ReinsertIsIdempotent) {
  DirtySet ds(SmallConfig());
  const Fingerprint fp = MakeFingerprint(3, 123);
  EXPECT_TRUE(ds.Insert(fp));
  EXPECT_TRUE(ds.Insert(fp));
  EXPECT_TRUE(ds.Insert(fp));
  EXPECT_EQ(ds.Population(), 1u);  // no duplicate tags (Fig 10 cleanup)
  ds.RemoveUnchecked(fp);
  EXPECT_FALSE(ds.Query(fp));
  EXPECT_EQ(ds.Population(), 0u);
}

TEST(DirtySet, InsertCleansDuplicateInLaterStage) {
  // Construct the Fig 10 scenario: tag present in a later stage, then an
  // earlier slot frees up and the tag is re-inserted — the walk must leave
  // exactly one copy.
  DirtySet ds(SmallConfig(/*stages=*/3));
  const uint32_t idx = 7;
  const Fingerprint a = MakeFingerprint(idx, 1);
  const Fingerprint b = MakeFingerprint(idx, 2);
  ASSERT_TRUE(ds.Insert(a));  // stage 0
  ASSERT_TRUE(ds.Insert(b));  // stage 1
  ds.RemoveUnchecked(a);      // stage 0 now empty; b in stage 1
  ASSERT_TRUE(ds.Insert(b));  // lands in stage 0, must clean stage 1 copy
  EXPECT_EQ(ds.Population(), 1u);
  ds.RemoveUnchecked(b);
  EXPECT_FALSE(ds.Query(b));
  EXPECT_EQ(ds.Population(), 0u);
}

TEST(DirtySet, RemoveSequenceRejectsStaleDuplicates) {
  DirtySet ds(SmallConfig());
  const Fingerprint fp = MakeFingerprint(2, 50);
  ASSERT_TRUE(ds.Insert(fp));
  EXPECT_TRUE(ds.Remove(fp, /*origin=*/1, /*seq=*/1));
  EXPECT_FALSE(ds.Query(fp));
  // Re-insert by a subsequent operation.
  ASSERT_TRUE(ds.Insert(fp));
  // A delayed duplicate of the old remove must NOT evict the new insert.
  EXPECT_FALSE(ds.Remove(fp, /*origin=*/1, /*seq=*/1));
  EXPECT_TRUE(ds.Query(fp));
  // A genuinely new remove (higher seq) works.
  EXPECT_TRUE(ds.Remove(fp, /*origin=*/1, /*seq=*/2));
  EXPECT_FALSE(ds.Query(fp));
  EXPECT_EQ(ds.stale_removes(), 1u);
}

TEST(DirtySet, RemoveSequencesArePerOrigin) {
  DirtySet ds(SmallConfig());
  const Fingerprint fp = MakeFingerprint(2, 50);
  ASSERT_TRUE(ds.Insert(fp));
  EXPECT_TRUE(ds.Remove(fp, /*origin=*/1, /*seq=*/5));
  ASSERT_TRUE(ds.Insert(fp));
  // Another origin with a small seq is not stale.
  EXPECT_TRUE(ds.Remove(fp, /*origin=*/2, /*seq=*/1));
}

// One aggregation round removes its whole group list under one seq: the
// seq is checked once, then every group goes — or, if stale, none does.
TEST(DirtySet, SetRemoveChecksTheSeqOnceForTheWholeList) {
  DirtySet ds(SmallConfig());
  const std::vector<Fingerprint> fps = {MakeFingerprint(2, 50),
                                        MakeFingerprint(3, 51),
                                        MakeFingerprint(4, 52)};
  for (Fingerprint fp : fps) {
    ASSERT_TRUE(ds.Insert(fp));
  }
  EXPECT_TRUE(ds.Remove(std::span(fps.data(), 2), /*origin=*/1, /*seq=*/7));
  EXPECT_FALSE(ds.Query(fps[0]));
  EXPECT_FALSE(ds.Query(fps[1]));
  EXPECT_TRUE(ds.Query(fps[2])) << "a group outside the list was removed";
  ASSERT_TRUE(ds.Insert(fps[0]));
  // A delayed duplicate with the same seq refuses the whole list.
  EXPECT_FALSE(ds.Remove(fps, /*origin=*/1, /*seq=*/7));
  for (Fingerprint fp : {fps[0], fps[2]}) {
    EXPECT_TRUE(ds.Query(fp));
  }
  EXPECT_EQ(ds.stale_removes(), 1u);
}

TEST(DirtySet, ClearWipesEverything) {
  DirtySet ds(SmallConfig());
  for (uint32_t t = 1; t <= 20; ++t) {
    ds.Insert(MakeFingerprint(t % 8, t));
  }
  ds.Remove(MakeFingerprint(1, 1), 1, 9);
  ds.Clear();
  EXPECT_EQ(ds.Population(), 0u);
  // Sequence bookkeeping was also lost: an old seq is accepted again.
  ds.Insert(MakeFingerprint(1, 1));
  EXPECT_TRUE(ds.Remove(MakeFingerprint(1, 1), 1, 1));
}

TEST(DirtySet, FullSizeMemoryFootprintMatchesPaper) {
  DirtySet ds{DirtySetConfig{}};  // 10 stages x 131072 registers
  // §6.5: 1,310,720 32-bit registers = 5 MiB.
  EXPECT_EQ(ds.MemoryBytes(), 5u * 1024 * 1024);
}

TEST(DirtySet, HighUtilizationBeforeOverflow) {
  // With random fingerprints the set-associative layout should absorb a load
  // factor well past a direct-mapped table. Fill to 50% of capacity and
  // expect a very low overflow rate.
  DirtySet ds(SmallConfig(/*stages=*/10, /*regs=*/1024));
  Rng rng(7);
  const uint64_t capacity = 10 * 1024;
  uint64_t overflows = 0;
  for (uint64_t i = 0; i < capacity / 2; ++i) {
    if (!ds.Insert(FingerprintFromHash(rng.Next()))) {
      overflows++;
    }
  }
  EXPECT_LT(overflows, capacity / 2 / 100);  // <1% at 50% fill
}

// --- data plane ---

DataPlaneConfig SmallPlane() {
  DataPlaneConfig c;
  c.dirty_set = SmallConfig(4, 256);
  c.num_pipes = 2;
  return c;
}

net::Packet DsPacket(net::DsOp op, Fingerprint fp, net::NodeId src,
                     net::NodeId dst) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.ds.op = op;
  p.ds.fingerprint = fp;
  p.ds.origin = src;
  return p;
}

TEST(DataPlane, RegularPacketsForwardUntouched) {
  DataPlane dp(SmallPlane());
  net::Packet p;
  p.src = 1;
  p.dst = 2;
  auto out = dp.Process(p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 2u);
  EXPECT_EQ(dp.stats().regular_forwarded, 1u);
}

TEST(DataPlane, QueryAttachesResult) {
  DataPlane dp(SmallPlane());
  const Fingerprint fp = FingerprintFromHash(0x1234567890ULL);
  auto q1 = dp.Process(DsPacket(net::DsOp::kQuery, fp, 1, 2));
  ASSERT_EQ(q1.size(), 1u);
  EXPECT_FALSE(q1[0].ds.ret);
  // Insert via data plane, then re-query.
  net::Packet ins = DsPacket(net::DsOp::kInsert, fp, 3, 9);
  ins.ds.notify = 9;
  dp.Process(ins);
  auto q2 = dp.Process(DsPacket(net::DsOp::kQuery, fp, 1, 2));
  ASSERT_EQ(q2.size(), 1u);
  EXPECT_TRUE(q2[0].ds.ret);
  EXPECT_EQ(q2[0].dst, 2u);  // forwarded to the original destination
}

TEST(DataPlane, InsertSuccessMulticastsToClientAndOrigin) {
  DataPlane dp(SmallPlane());
  const Fingerprint fp = FingerprintFromHash(42);
  net::Packet ins = DsPacket(net::DsOp::kInsert, fp, /*src=*/5, /*dst=*/9);
  auto out = dp.Process(ins);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].dst, 9u);  // client completion (7a)
  EXPECT_EQ(out[1].dst, 5u);  // origin unlock signal (7b)
  EXPECT_TRUE(out[0].ds.ret);
  EXPECT_TRUE(out[1].ds.ret);
  EXPECT_TRUE(dp.Contains(fp));
}

TEST(DataPlane, InsertOverflowRedirectsToAlternativeAddress) {
  DataPlane dp(SmallPlane());
  dp.SetForceInsertOverflow(true);
  const Fingerprint fp = FingerprintFromHash(42);
  net::Packet ins = DsPacket(net::DsOp::kInsert, fp, 5, 9);
  ins.ds.alt_dst = 7;  // parent directory's owner server
  auto out = dp.Process(ins);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 7u);
  EXPECT_FALSE(out[0].ds.ret);
  EXPECT_FALSE(dp.Contains(fp));
  EXPECT_EQ(dp.stats().insert_fallbacks, 1u);
}

TEST(DataPlane, RemoveMulticastsToAllOtherServers) {
  DataPlane dp(SmallPlane());
  dp.SetServerGroup({10, 11, 12, 13});
  const Fingerprint fp = FingerprintFromHash(42);
  dp.Process(DsPacket(net::DsOp::kInsert, fp, 10, 9));
  net::Packet rm = DsPacket(net::DsOp::kRemove, fp, 10, net::kServerMulticast);
  rm.ds.remove_seq = 1;
  auto out = dp.Process(rm);
  ASSERT_EQ(out.size(), 3u);
  std::set<net::NodeId> dsts;
  for (const auto& p : out) {
    dsts.insert(p.dst);
  }
  EXPECT_EQ(dsts, (std::set<net::NodeId>{11, 12, 13}));
  EXPECT_FALSE(dp.Contains(fp));
}

TEST(DataPlane, StaleRemoveIsDroppedEntirely) {
  DataPlane dp(SmallPlane());
  dp.SetServerGroup({10, 11});
  const Fingerprint fp = FingerprintFromHash(42);
  net::Packet rm = DsPacket(net::DsOp::kRemove, fp, 10, net::kServerMulticast);
  rm.ds.remove_seq = 5;
  EXPECT_EQ(dp.Process(rm).size(), 1u);  // first remove multicasts
  dp.Process(DsPacket(net::DsOp::kInsert, fp, 10, 9));
  net::Packet stale = rm;  // duplicate with the same seq
  EXPECT_TRUE(dp.Process(stale).empty());
  EXPECT_TRUE(dp.Contains(fp));  // the later insert survived
  EXPECT_EQ(dp.stats().stale_removes, 1u);
}

// Fingerprints of SmallPlane()'s two pipes: `count` distinct ones whose
// home pipe is `pipe`.
std::vector<Fingerprint> FingerprintsInPipe(const DataPlane& dp, int pipe,
                                            int count) {
  std::vector<Fingerprint> out;
  Rng rng(17);
  while (static_cast<int>(out.size()) < count) {
    const Fingerprint fp = FingerprintFromHash(rng.Next());
    if (dp.HomePipe(fp) == pipe) {
      out.push_back(fp);
    }
  }
  return out;
}

net::Packet SetRemove(const std::vector<Fingerprint>& fps, net::NodeId src,
                      uint64_t seq) {
  net::Packet rm = DsPacket(net::DsOp::kRemove, fps.front(), src,
                            net::kServerMulticast);
  rm.ds.groups = std::make_shared<const std::vector<uint64_t>>(fps);
  rm.ds.remove_seq = seq;
  return rm;
}

// A set remove spanning both pipes executes in each and multicasts the
// collect once.
TEST(DataPlane, SetRemoveSpanningPipesExecutesAndMulticastsOnce) {
  DataPlane dp(SmallPlane());
  dp.SetServerGroup({10, 11, 12, 13});
  std::vector<Fingerprint> fps = FingerprintsInPipe(dp, 0, 2);
  for (Fingerprint fp : FingerprintsInPipe(dp, 1, 2)) {
    fps.push_back(fp);
  }
  for (Fingerprint fp : fps) {
    dp.Process(DsPacket(net::DsOp::kInsert, fp, 10, 9));
  }
  auto out = dp.Process(SetRemove(fps, 10, 1));
  ASSERT_EQ(out.size(), 3u);  // one collect per other server
  std::set<net::NodeId> dsts;
  for (const auto& p : out) {
    dsts.insert(p.dst);
  }
  EXPECT_EQ(dsts, (std::set<net::NodeId>{11, 12, 13}));
  for (Fingerprint fp : fps) {
    EXPECT_FALSE(dp.Contains(fp));
  }
  EXPECT_EQ(dp.stats().removes, 1u);
}

// A pipe that already saw the round's seq refuses its whole share of the
// list; the other pipe still executes, so the collect still goes out.
TEST(DataPlane, StaleSeqIsRefusedForAPipesWholeGroupList) {
  DataPlane dp(SmallPlane());
  dp.SetServerGroup({10, 11});
  const std::vector<Fingerprint> pipe0 = FingerprintsInPipe(dp, 0, 2);
  const std::vector<Fingerprint> pipe1 = FingerprintsInPipe(dp, 1, 1);
  // Pipe 0 has seen seq 5 from origin 10; pipe 1 has not.
  EXPECT_EQ(dp.Process(SetRemove({pipe0[0]}, 10, 5)).size(), 1u);
  std::vector<Fingerprint> fps = pipe0;
  fps.push_back(pipe1[0]);
  for (Fingerprint fp : fps) {
    dp.Process(DsPacket(net::DsOp::kInsert, fp, 10, 9));
  }
  EXPECT_EQ(dp.Process(SetRemove(fps, 10, 5)).size(), 1u);
  EXPECT_TRUE(dp.Contains(pipe0[0]));
  EXPECT_TRUE(dp.Contains(pipe0[1]));
  EXPECT_FALSE(dp.Contains(pipe1[0]));
}

// When every pipe refuses, no group is cleared and no collect goes out.
TEST(DataPlane, SetRemoveRefusedByEveryPipeSendsNoCollect) {
  DataPlane dp(SmallPlane());
  dp.SetServerGroup({10, 11});
  std::vector<Fingerprint> fps = FingerprintsInPipe(dp, 0, 2);
  fps.push_back(FingerprintsInPipe(dp, 1, 1)[0]);
  EXPECT_EQ(dp.Process(SetRemove(fps, 10, 5)).size(), 1u);
  for (Fingerprint fp : fps) {
    dp.Process(DsPacket(net::DsOp::kInsert, fp, 10, 9));
  }
  EXPECT_TRUE(dp.Process(SetRemove(fps, 10, 5)).empty());
  for (Fingerprint fp : fps) {
    EXPECT_TRUE(dp.Contains(fp));
  }
  EXPECT_EQ(dp.stats().stale_removes, 1u);
}

TEST(DataPlane, PipesShardByFingerprintPrefix) {
  DataPlane dp(SmallPlane());
  Rng rng(3);
  int in_pipe0 = 0;
  int in_pipe1 = 0;
  for (int i = 0; i < 200; ++i) {
    const Fingerprint fp = FingerprintFromHash(rng.Next());
    dp.Process(DsPacket(net::DsOp::kInsert, fp, 1, 2));
    ASSERT_TRUE(dp.Contains(fp));
    if (dp.HomePipe(fp) == 0) {
      in_pipe0++;
    } else {
      in_pipe1++;
    }
  }
  // Random fingerprints spread across pipes.
  EXPECT_GT(in_pipe0, 50);
  EXPECT_GT(in_pipe1, 50);
}

TEST(DataPlane, ResetClearsAllPipes) {
  DataPlane dp(SmallPlane());
  Rng rng(3);
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 50; ++i) {
    fps.push_back(FingerprintFromHash(rng.Next()));
    dp.Process(DsPacket(net::DsOp::kInsert, fps.back(), 1, 2));
  }
  dp.Reset();
  for (Fingerprint fp : fps) {
    EXPECT_FALSE(dp.Contains(fp));
  }
}

}  // namespace
}  // namespace switchfs::psw
