#include "src/core/change_log.h"

#include <algorithm>
#include <cassert>

namespace switchfs::core {

void ChangeLogEntry::EncodeTo(Encoder& enc) const {
  enc.PutU64(seq);
  enc.PutI64(timestamp);
  enc.PutU8(static_cast<uint8_t>(op));
  enc.PutString(name);
  enc.PutU8(static_cast<uint8_t>(entry_type));
  enc.PutI64(size_delta);
}

ChangeLogEntry ChangeLogEntry::DecodeFrom(Decoder& dec) {
  ChangeLogEntry e;
  e.seq = dec.GetU64();
  e.timestamp = dec.GetI64();
  e.op = static_cast<OpType>(dec.GetU8());
  e.name = dec.GetString();
  e.entry_type = static_cast<FileType>(dec.GetU8());
  e.size_delta = dec.GetI64();
  return e;
}

uint64_t ChangeLog::Append(ChangeLogEntry entry) {
  entry.seq = next_seq_++;
  max_timestamp_ = std::max(max_timestamp_, entry.timestamp);
  entries_.push_back(std::move(entry));
  return entries_.back().seq;
}

void ChangeLog::Restore(ChangeLogEntry entry) {
  assert(empty() || entries_.back().seq < entry.seq);
  max_timestamp_ = std::max(max_timestamp_, entry.timestamp);
  next_seq_ = std::max(next_seq_, entry.seq + 1);
  entries_.push_back(std::move(entry));
}

std::vector<uint64_t> ChangeLog::AckUpTo(uint64_t acked_seq) {
  std::vector<uint64_t> lsns;
  for (; !empty() && entries_[head_].seq <= acked_seq; ++head_) {
    if (entries_[head_].wal_lsn != 0) {
      lsns.push_back(entries_[head_].wal_lsn);
    }
  }
  Compact();
  return lsns;
}

size_t ChangeLog::DrainInto(ChangeLog& target) {
  assert(&target != this);  // self-drain would append forever
  const size_t moved = size();
  for (; head_ < entries_.size(); ++head_) {
    target.Append(std::move(entries_[head_]));  // re-assigns the seq
  }
  Compact();
  return moved;
}

void ChangeLog::Compact() {
  if (empty()) {
    entries_ = std::vector<ChangeLogEntry>();  // frees the storage
    head_ = 0;
  } else if (head_ * 2 >= entries_.size()) {
    // Moves at most as many entries as were acknowledged since the last
    // compaction: amortized O(1) per entry.
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
}

int64_t ChangeLog::pending_size_delta() const {
  int64_t total = 0;
  for (const ChangeLogEntry& e : pending()) {
    total += e.size_delta;
  }
  return total;
}

}  // namespace switchfs::core
