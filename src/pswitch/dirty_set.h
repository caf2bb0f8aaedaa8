// The in-network dirty set (paper §6.3): a set-associative structure built
// from per-stage 32-bit register arrays. Registers at the same index across
// the pipeline stages form a set; the fingerprint's 17-bit index selects the
// set and its 32-bit tag is what the stages store.
//
// Operation composition (verbatim from the paper):
//   query  - all stages run `register query`; result is the OR.
//   insert - stages run `conditional insert` one by one until one returns
//            true; the *following* stages run `conditional remove` so no
//            duplicate tags remain in the set (Fig 10).
//   remove - all stages run `conditional remove`.
//
// Duplicate-remove protection (§5.4.1): each remove request carries a
// sequence number; the switch tracks the highest sequence seen per sending
// server and ignores stale removes, so a delayed duplicate cannot evict a
// fingerprint inserted after its aggregation completed. A remove carries
// the whole group list of one aggregation round: the seq is checked once
// and then every listed group is removed, or none of them.
#ifndef SRC_PSWITCH_DIRTY_SET_H_
#define SRC_PSWITCH_DIRTY_SET_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/pswitch/fingerprint.h"
#include "src/pswitch/register_stage.h"

namespace switchfs::psw {

struct DirtySetConfig {
  int num_stages = 10;                     // §6.3: ten stages
  uint32_t registers_per_stage = kIndexCount;  // 131072 (2^17) per stage
};

class DirtySet {
 public:
  explicit DirtySet(const DirtySetConfig& config = DirtySetConfig{});

  // Returns true iff `fp` is present.
  bool Query(Fingerprint fp) const;

  // Returns true on success (inserted or already present); false if the set
  // (all stage slots for this index) is full — the overflow that triggers the
  // synchronous-update fallback (§5.2.1).
  bool Insert(Fingerprint fp);

  // Applies a remove of `fps` from `origin_server` with sequence number
  // `seq`: one check of `seq` against the origin's high-water mark, then all
  // of `fps` are removed. Returns true if the remove was executed, false if
  // it was stale and nothing was removed (§5.4.1).
  bool Remove(std::span<const Fingerprint> fps, uint32_t origin_server,
              uint64_t seq);
  bool Remove(Fingerprint fp, uint32_t origin_server, uint64_t seq) {
    return Remove(std::span<const Fingerprint>(&fp, 1), origin_server, seq);
  }

  // Unconditional remove without sequence bookkeeping (tests / recovery).
  void RemoveUnchecked(Fingerprint fp);

  // Switch reboot: all register state and sequence bookkeeping is lost.
  void Clear();

  int num_stages() const { return static_cast<int>(stages_.size()); }
  uint32_t registers_per_stage() const { return stages_[0].size(); }
  size_t MemoryBytes() const;
  uint64_t Population() const;  // number of non-zero registers

  uint64_t inserts() const { return inserts_; }
  uint64_t insert_overflows() const { return insert_overflows_; }
  uint64_t removes() const { return removes_; }
  uint64_t stale_removes() const { return stale_removes_; }

 private:
  std::vector<RegisterStage> stages_;
  // Highest remove sequence seen per origin server.
  std::unordered_map<uint32_t, uint64_t> remove_seq_;
  uint64_t inserts_ = 0;
  uint64_t insert_overflows_ = 0;
  uint64_t removes_ = 0;
  uint64_t stale_removes_ = 0;
};

}  // namespace switchfs::psw

#endif  // SRC_PSWITCH_DIRTY_SET_H_
