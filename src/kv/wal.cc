#include "src/kv/wal.h"

#include <cassert>

namespace switchfs::kv {

uint64_t Wal::Append(uint32_t type, std::string payload) {
  const uint64_t lsn = next_lsn_++;
  // Encoders grow the payload by doubling; keep the retained copy at its
  // exact size (the WAL holds every record until truncation).
  payload.shrink_to_fit();
  records_.push_back(WalRecord{lsn, type, std::move(payload), false});
  return lsn;
}

void Wal::MarkApplied(uint64_t lsn) {
  if (lsn < first_lsn_) {
    return;  // already truncated
  }
  const size_t idx = static_cast<size_t>(lsn - first_lsn_);
  if (idx < records_.size()) {
    assert(records_[idx].lsn == lsn);
    records_[idx].applied = true;
  }
}

size_t Wal::unapplied_count() const {
  size_t n = 0;
  for (const WalRecord& r : records_) {
    if (!r.applied) {
      ++n;
    }
  }
  return n;
}

void Wal::TruncateUpTo(uint64_t up_to) {
  while (!records_.empty() && records_.front().lsn <= up_to) {
    records_.pop_front();
    first_lsn_++;
  }
}

}  // namespace switchfs::kv
