// Client-side metadata cache (paper §4.2): caches only *directory* metadata
// (id, permissions, fingerprint) keyed by path, to accelerate path
// resolution. Entries record the full ancestor-id chain so that a server-side
// invalidation of any ancestor drops every dependent entry.
//
// A client's view has two layers. The bottom one is a WarmSnapshot: the
// preloaded directories of its cluster, built once per warm-up generation
// and shared, immutable, by every client warmed from it. On top sits the
// client's own overlay map of the entries it learned since. A per-slot mask
// bit hides each snapshot entry the client has since replaced (Put), erased
// (ErasePath), cleared or invalidated, so a snapshot path is visible through
// at most one layer at a time. InvalidateId masks snapshot entries through
// the snapshot's id -> dependent-slots index and scans only the overlay.
// Clusters hand snapshots out through one WarmSnapshotSource each. A client
// keeps the snapshot it was warmed with; directories preloaded later reach
// only clients warmed later.
#ifndef SRC_CORE_CLIENT_CACHE_H_
#define SRC_CORE_CLIENT_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/core/messages.h"
#include "src/core/types.h"
#include "src/pswitch/fingerprint.h"

namespace switchfs::core {

struct CachedDir {
  InodeId id;
  psw::Fingerprint fp = 0;   // fingerprint of the directory's (pid, name)
  uint32_t mode = 0755;
  // Every component on the path to this directory, inclusive, with the
  // server-side read time of each entry (invalidation ordering).
  std::vector<AncestorRef> ancestors;
};

// Immutable warm path cache shared by the clients of one cluster: path ->
// slot, one CachedDir per slot, and for every id on some entry's ancestor
// chain the slots whose chain contains it.
class WarmSnapshot {
 public:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // Paths must be distinct.
  explicit WarmSnapshot(std::vector<std::pair<std::string, CachedDir>> entries);

  uint32_t Find(const std::string& path) const {
    auto it = slots_.find(path);
    return it == slots_.end() ? kNoSlot : it->second;
  }
  const CachedDir& entry(uint32_t slot) const { return dirs_[slot]; }
  // Slots whose ancestor chain contains `id`; null when none.
  const std::vector<uint32_t>* Dependents(const InodeId& id) const {
    auto it = dependents_.find(id);
    return it == dependents_.end() ? nullptr : &it->second;
  }
  const std::unordered_map<std::string, uint32_t>& slots() const {
    return slots_;
  }
  size_t size() const { return dirs_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> slots_;
  std::vector<CachedDir> dirs_;
  std::unordered_map<InodeId, std::vector<uint32_t>, InodeIdHash> dependents_;
};

// Client-side state behind one DirHandle (MetadataService v2): where the
// server-side session lives and how to route page requests back to it. The
// routing is pinned at OpenDir — the session stays at the server that
// opened it even if the directory is renamed away mid-stream.
struct OpenDirState {
  std::string path;
  InodeId dir;                  // directory id
  psw::Fingerprint dir_fp = 0;  // fingerprint of the opened (pid, name)
  uint32_t server = 0;          // the server holding the session
  uint64_t session = 0;         // server-side session id
};

class SFS_SUSPENSION_SHARED ClientCache {
 public:
  // Warm-up: every entry of `snapshot` becomes visible, replacing any
  // overlay entry for the same path, as if each were Put. Entries of an
  // earlier snapshot that the new one does not hold stay visible.
  void AttachSnapshot(std::shared_ptr<const WarmSnapshot> snapshot);

  // The overlay is asked first; a path is visible through one layer at most.
  const CachedDir* Get(const std::string& path) const {
    auto it = overlay_.find(path);
    if (it != overlay_.end()) {
      return &it->second;
    }
    if (snapshot_ == nullptr) {
      return nullptr;
    }
    const uint32_t slot = snapshot_->Find(path);
    return slot == WarmSnapshot::kNoSlot || masked(slot)
               ? nullptr
               : &snapshot_->entry(slot);
  }

  void Put(const std::string& path, CachedDir entry) {
    MaskPath(path);
    overlay_[path] = std::move(entry);
  }

  void ErasePath(const std::string& path) {
    MaskPath(path);
    overlay_.erase(path);
  }

  // Drops every entry whose ancestor chain contains `id` (the entry itself
  // included). Returns the number of dropped entries.
  size_t InvalidateId(const InodeId& id);

  void Clear();
  size_t size() const;

  const std::shared_ptr<const WarmSnapshot>& snapshot() const {
    return snapshot_;
  }
  size_t overlay_size() const { return overlay_.size(); }

  // --- directory-handle table (MetadataService v2) ---
  uint64_t PutHandle(OpenDirState state) {
    const uint64_t id = next_handle_++;
    handles_.emplace(id, std::move(state));
    return id;
  }
  OpenDirState* GetHandle(uint64_t id) {
    auto it = handles_.find(id);
    return it == handles_.end() ? nullptr : &it->second;
  }
  void EraseHandle(uint64_t id) { handles_.erase(id); }
  size_t handle_count() const { return handles_.size(); }

  uint64_t hits = 0;
  uint64_t misses = 0;

 private:
  bool masked(uint32_t slot) const {
    return (mask_[slot / 64] >> (slot % 64)) & 1;
  }
  // Hides one snapshot slot; returns whether it was visible.
  bool Mask(uint32_t slot) {
    if (masked(slot)) {
      return false;
    }
    mask_[slot / 64] |= uint64_t{1} << (slot % 64);
    return true;
  }
  void MaskPath(const std::string& path) {
    if (snapshot_ != nullptr) {
      const uint32_t slot = snapshot_->Find(path);
      if (slot != WarmSnapshot::kNoSlot) {
        Mask(slot);
      }
    }
  }

  std::shared_ptr<const WarmSnapshot> snapshot_;
  std::vector<uint64_t> mask_;  // one bit per snapshot slot; 1 = hidden
  std::unordered_map<std::string, CachedDir> overlay_;
  std::unordered_map<uint64_t, OpenDirState> handles_;
  uint64_t next_handle_ = 1;
};

// One cluster's warm-up policy. Every client warmed since the last preload
// shares one snapshot; each preload path calls Invalidate, and the next
// warm-up builds a new snapshot from the cluster's preloaded directories.
class WarmSnapshotSource {
 public:
  void Invalidate() { snapshot_ = nullptr; }

  // Attaches the current snapshot to `cache`. If a preload invalidated it,
  // first builds it from `preloaded` (path -> the cluster's preload record),
  // converting each record with `make_entry(record) -> CachedDir`.
  template <typename PreloadedMap, typename MakeEntry>
  void Warm(ClientCache& cache, const PreloadedMap& preloaded,
            MakeEntry make_entry) {
    if (snapshot_ == nullptr) {
      std::vector<std::pair<std::string, CachedDir>> entries;
      entries.reserve(preloaded.size());
      for (const auto& [path, record] : preloaded) {
        entries.emplace_back(path, make_entry(record));
      }
      snapshot_ = std::make_shared<const WarmSnapshot>(std::move(entries));
    }
    cache.AttachSnapshot(snapshot_);
  }

 private:
  std::shared_ptr<const WarmSnapshot> snapshot_;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_CLIENT_CACHE_H_
