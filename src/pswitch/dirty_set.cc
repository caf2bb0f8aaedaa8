#include "src/pswitch/dirty_set.h"

#include <cassert>

namespace switchfs::psw {

DirtySet::DirtySet(const DirtySetConfig& config) {
  assert(config.num_stages >= 1);
  assert(config.registers_per_stage >= 1);
  stages_.reserve(config.num_stages);
  for (int i = 0; i < config.num_stages; ++i) {
    stages_.emplace_back(config.registers_per_stage);
  }
}

bool DirtySet::Query(Fingerprint fp) const {
  const uint32_t index = FingerprintIndex(fp) % stages_[0].size();
  const uint32_t tag = FingerprintTag(fp);
  for (const RegisterStage& stage : stages_) {
    if (stage.Query(index, tag)) {
      return true;
    }
  }
  return false;
}

bool DirtySet::Insert(Fingerprint fp) {
  const uint32_t index = FingerprintIndex(fp) % stages_[0].size();
  const uint32_t tag = FingerprintTag(fp);
  inserts_++;
  bool inserted = false;
  for (RegisterStage& stage : stages_) {
    if (!inserted) {
      inserted = stage.ConditionalInsert(index, tag);
    } else {
      // Later stages clean up any stale duplicate of the same tag (Fig 10).
      stage.ConditionalRemove(index, tag);
    }
  }
  if (!inserted) {
    insert_overflows_++;
  }
  return inserted;
}

bool DirtySet::Remove(std::span<const Fingerprint> fps, uint32_t origin_server,
                      uint64_t seq) {
  uint64_t& highest = remove_seq_[origin_server];
  if (seq <= highest) {
    stale_removes_++;
    return false;
  }
  highest = seq;
  for (Fingerprint fp : fps) {
    RemoveUnchecked(fp);
  }
  return true;
}

void DirtySet::RemoveUnchecked(Fingerprint fp) {
  const uint32_t index = FingerprintIndex(fp) % stages_[0].size();
  const uint32_t tag = FingerprintTag(fp);
  removes_++;
  for (RegisterStage& stage : stages_) {
    stage.ConditionalRemove(index, tag);
  }
}

void DirtySet::Clear() {
  for (RegisterStage& stage : stages_) {
    stage.Clear();
  }
  remove_seq_.clear();
}

size_t DirtySet::MemoryBytes() const {
  size_t total = 0;
  for (const RegisterStage& stage : stages_) {
    total += stage.MemoryBytes();
  }
  return total;
}

uint64_t DirtySet::Population() const {
  uint64_t population = 0;
  for (const RegisterStage& stage : stages_) {
    for (uint32_t i = 0; i < stage.size(); ++i) {
      if (stage.ValueAt(i) != 0) {
        population++;
      }
    }
  }
  return population;
}

}  // namespace switchfs::psw
