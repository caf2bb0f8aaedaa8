// Client-side metadata cache (paper §4.2): caches only *directory* metadata
// (id, permissions, fingerprint) keyed by path, to accelerate path
// resolution. Entries record the full ancestor-id chain so that a server-side
// invalidation of any ancestor drops every dependent entry.
#ifndef SRC_CORE_CLIENT_CACHE_H_
#define SRC_CORE_CLIENT_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
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

// Client-side state behind one DirHandle (MetadataService v2): where the
// owner-side session lives and how to route page requests back to it. The
// routing is pinned at OpenDir — the session stays at the server that
// opened it even if the directory is renamed away mid-stream.
struct OpenDirState {
  std::string path;
  InodeId dir;                     // directory id (observability)
  psw::Fingerprint target_fp = 0;  // SwitchFS: owner routing of the (pid, name)
  uint32_t server = 0;             // baselines: the dir's home-server index
  uint64_t session = 0;            // owner-side session id
};

class SFS_SUSPENSION_SHARED ClientCache {
 public:
  const CachedDir* Get(const std::string& path) const {
    auto it = map_.find(path);
    return it == map_.end() ? nullptr : &it->second;
  }

  void Put(const std::string& path, CachedDir entry) {
    map_[path] = std::move(entry);
  }

  void ErasePath(const std::string& path) { map_.erase(path); }

  // Drops every entry whose ancestor chain contains `id` (the entry itself
  // included). Returns the number of dropped entries.
  size_t InvalidateId(const InodeId& id) {
    size_t dropped = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      bool hit = false;
      for (const AncestorRef& a : it->second.ancestors) {
        if (a.id == id) {
          hit = true;
          break;
        }
      }
      if (hit) {
        it = map_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  void Clear() { map_.clear(); }
  size_t size() const { return map_.size(); }

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
  std::unordered_map<std::string, CachedDir> map_;
  std::unordered_map<uint64_t, OpenDirState> handles_;
  uint64_t next_handle_ = 1;
};

}  // namespace switchfs::core

#endif  // SRC_CORE_CLIENT_CACHE_H_
