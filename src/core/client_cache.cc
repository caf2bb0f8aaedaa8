#include "src/core/client_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace switchfs::core {

WarmSnapshot::WarmSnapshot(
    std::vector<std::pair<std::string, CachedDir>> entries) {
  slots_.reserve(entries.size());
  dirs_.reserve(entries.size());
  for (auto& [path, dir] : entries) {
    const auto slot = static_cast<uint32_t>(dirs_.size());
    [[maybe_unused]] const bool fresh =
        slots_.emplace(std::move(path), slot).second;
    assert(fresh && "warm snapshot paths must be distinct");
    for (const AncestorRef& a : dir.ancestors) {
      dependents_[a.id].push_back(slot);
    }
    dirs_.push_back(std::move(dir));
  }
}

void ClientCache::AttachSnapshot(std::shared_ptr<const WarmSnapshot> snapshot) {
  if (snapshot_ != nullptr) {
    for (const auto& [path, slot] : snapshot_->slots()) {
      if (!masked(slot) && snapshot->Find(path) == WarmSnapshot::kNoSlot) {
        overlay_.emplace(path, snapshot_->entry(slot));
      }
    }
  }
  for (auto it = overlay_.begin(); it != overlay_.end();) {
    if (snapshot->Find(it->first) != WarmSnapshot::kNoSlot) {
      it = overlay_.erase(it);
    } else {
      ++it;
    }
  }
  snapshot_ = std::move(snapshot);
  mask_.assign((snapshot_->size() + 63) / 64, 0);
}

size_t ClientCache::InvalidateId(const InodeId& id) {
  size_t dropped = 0;
  if (snapshot_ != nullptr) {
    if (const std::vector<uint32_t>* deps = snapshot_->Dependents(id)) {
      for (const uint32_t slot : *deps) {
        dropped += Mask(slot) ? 1 : 0;
      }
    }
  }
  for (auto it = overlay_.begin(); it != overlay_.end();) {
    bool hit = false;
    for (const AncestorRef& a : it->second.ancestors) {
      if (a.id == id) {
        hit = true;
        break;
      }
    }
    if (hit) {
      it = overlay_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void ClientCache::Clear() {
  overlay_.clear();
  std::fill(mask_.begin(), mask_.end(), ~uint64_t{0});
  // Only real slots are masked, so size() can count the set bits.
  if (const size_t tail = snapshot_ == nullptr ? 0 : snapshot_->size() % 64) {
    mask_.back() = (uint64_t{1} << tail) - 1;
  }
}

size_t ClientCache::size() const {
  if (snapshot_ == nullptr) {
    return overlay_.size();
  }
  size_t hidden = 0;
  for (const uint64_t word : mask_) {
    hidden += static_cast<size_t>(std::popcount(word));
  }
  return overlay_.size() + snapshot_->size() - hidden;
}

}  // namespace switchfs::core
