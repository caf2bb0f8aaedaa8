// Per-server, per-directory change-logs (paper §5.2, Fig 7): FIFO queues of
// committed-but-not-yet-applied asynchronous updates to a remote directory,
// plus the consolidated (compacted) attribute state — the maximum timestamp
// and the accumulated size delta — that lets the owner apply N entries with
// one attribute write (§5.3).
//
// Entry sequence numbers are per (source server, directory) and strictly
// FIFO; insertions and removals of the same name are always logged by the
// same server (the (pid, name) hash owner), so applying each source's
// entries in sequence order preserves the commit order of same-name pairs.
#ifndef SRC_CORE_CHANGE_LOG_H_
#define SRC_CORE_CHANGE_LOG_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/types.h"
#include "src/pswitch/fingerprint.h"

namespace switchfs::core {

struct ChangeLogEntry {
  uint64_t seq = 0;        // FIFO position within (source server, directory)
  int64_t timestamp = 0;   // commit time (type-(b) attribute overwrite)
  OpType op = OpType::kCreate;  // kCreate/kUnlink/kMkdir/kRmdir entry ops
  std::string name;
  FileType entry_type = FileType::kFile;
  int64_t size_delta = 0;  // type-(a) delta to the directory size
  uint64_t wal_lsn = 0;    // source-side WAL record to mark applied (not sent)

  void EncodeTo(Encoder& enc) const;
  static ChangeLogEntry DecodeFrom(Decoder& dec);
};

// The change-log of one directory on one (non-owner) server.
class ChangeLog {
 public:
  ChangeLog() = default;
  ChangeLog(const InodeId& dir_id, psw::Fingerprint fp)
      : dir_id_(dir_id), fp_(fp) {}

  // Appends a new entry, assigning the next sequence number. Returns the
  // assigned seq.
  uint64_t Append(ChangeLogEntry entry);
  // Re-inserts a recovered entry with its original seq (WAL replay).
  void Restore(ChangeLogEntry entry);

  // All entries not yet acknowledged by the owner, in FIFO order. The span
  // is invalidated by the next append or acknowledgement.
  std::span<const ChangeLogEntry> pending() const {
    return std::span<const ChangeLogEntry>(entries_).subspan(head_);
  }
  bool empty() const { return head_ == entries_.size(); }
  size_t size() const { return entries_.size() - head_; }

  // Drops entries with seq <= acked_seq; returns the WAL lsns of the dropped
  // entries so the caller can mark them "applied" (§5.2.2 step 9b).
  std::vector<uint64_t> AckUpTo(uint64_t acked_seq);

  // moved_fp rebind (§5.2 rename race): moves every pending entry into
  // `target` (the directory's change-log under its post-rename fingerprint),
  // re-assigning sequence numbers so they continue target's FIFO — the new
  // owner's high-water mark knows nothing of the old fingerprint's
  // numbering. WAL lsns ride along, so the eventual ack at the new owner
  // still marks the source's commit records applied. Returns the number of
  // entries moved; this log is empty afterwards.
  size_t DrainInto(ChangeLog& target);

  uint64_t last_appended_seq() const { return next_seq_ - 1; }
  // Compacted attribute state (Fig 7): consolidated max timestamp and total
  // size delta across pending entries.
  int64_t max_timestamp() const { return max_timestamp_; }
  int64_t pending_size_delta() const;

  const InodeId& dir_id() const { return dir_id_; }
  psw::Fingerprint fp() const { return fp_; }

 private:
  InodeId dir_id_;
  psw::Fingerprint fp_ = 0;
  uint64_t next_seq_ = 1;
  int64_t max_timestamp_ = 0;
  // Pending entries are entries_[head_..]. Acknowledged ones are dropped in
  // bulk once they are at least half the vector, and its storage is freed
  // when the log empties, so an idle log holds no heap memory (a server
  // keeps one log per directory it has ever appended to).
  std::vector<ChangeLogEntry> entries_;
  size_t head_ = 0;

  // Drops the acknowledged prefix below head_ when that is cheap enough.
  void Compact();
};

}  // namespace switchfs::core

#endif  // SRC_CORE_CHANGE_LOG_H_
