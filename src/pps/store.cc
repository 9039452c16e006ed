#include "pps/store.h"

#include <algorithm>

namespace roar::pps {

double IoModel::read_seconds(SourceMode mode, uint64_t bytes,
                             uint32_t extents) const {
  switch (mode) {
    case SourceMode::kColdDisk:
      return static_cast<double>(bytes) / (disk_mb_s * 1e6) +
             seek_s * extents;
    case SourceMode::kBufferCache:
      return static_cast<double>(bytes) / (cache_mb_s * 1e6);
    case SourceMode::kMemory:
      return 0.0;
  }
  return 0.0;
}

MetadataStore::MetadataStore(size_t block_entries)
    : block_entries_(block_entries == 0 ? 1 : block_entries) {}

void MetadataStore::load(std::vector<EncryptedFileMetadata> items) {
  items_ = std::move(items);
  std::sort(items_.begin(), items_.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  total_bytes_ = 0;
  for (const auto& it : items_) total_bytes_ += it.byte_size();
  rebuild_index();
}

void MetadataStore::insert(EncryptedFileMetadata item) {
  auto pos = std::lower_bound(
      items_.begin(), items_.end(), item.id,
      [](const auto& a, RingId id) { return a.id < id; });
  total_bytes_ += item.byte_size();
  items_.insert(pos, std::move(item));
  rebuild_index();
}

size_t MetadataStore::erase_range(const Arc& arc) {
  size_t before = items_.size();
  std::erase_if(items_, [&](const EncryptedFileMetadata& m) {
    return arc.contains(m.id);
  });
  size_t removed = before - items_.size();
  if (removed > 0) {
    total_bytes_ = 0;
    for (const auto& it : items_) total_bytes_ += it.byte_size();
    rebuild_index();
  }
  return removed;
}

size_t MetadataStore::retain_range(const Arc& arc) {
  size_t before = items_.size();
  std::erase_if(items_, [&](const EncryptedFileMetadata& m) {
    return !arc.contains(m.id);
  });
  size_t removed = before - items_.size();
  if (removed > 0) {
    total_bytes_ = 0;
    for (const auto& it : items_) total_bytes_ += it.byte_size();
    rebuild_index();
  }
  return removed;
}

void MetadataStore::rebuild_index() {
  index_.clear();
  for (size_t i = 0; i < items_.size(); i += block_entries_) {
    index_.emplace_back(items_[i].id, i);
  }
}

size_t MetadataStore::lower_bound_index(RingId id) const {
  // Coarse position from the sparse pointers, then fine search in-block.
  auto block = std::upper_bound(
      index_.begin(), index_.end(), id,
      [](RingId v, const auto& p) { return v < p.first; });
  size_t start = block == index_.begin() ? 0 : std::prev(block)->second;
  size_t end = std::min(start + block_entries_, items_.size());
  auto it = std::lower_bound(
      items_.begin() + start, items_.begin() + end, id,
      [](const EncryptedFileMetadata& m, RingId v) { return m.id < v; });
  return static_cast<size_t>(it - items_.begin());
}

MetadataStore::RangeSlice MetadataStore::slice(const Arc& arc) const {
  RangeSlice out;
  if (items_.empty() || arc.empty()) return out;
  RingId lo = arc.begin();
  RingId hi = arc.end();
  auto add_extent = [&](size_t first, size_t last) {
    if (first >= last) return;
    out.extents.emplace_back(first, last);
    out.count += last - first;
  };
  if (lo.raw() < hi.raw() && arc.length() > 0) {
    // Non-wrapping arc.
    add_extent(lower_bound_index(lo), lower_bound_index(hi));
  } else {
    // Wraps past zero: [lo, end) and [0, hi).
    add_extent(lower_bound_index(lo), items_.size());
    add_extent(0, lower_bound_index(hi));
  }
  return out;
}

MetadataStore::RangeSlice MetadataStore::slice_all() const {
  RangeSlice out;
  if (items_.empty()) return out;
  out.extents.emplace_back(0, items_.size());
  out.count = items_.size();
  return out;
}

uint64_t MetadataStore::bytes(const RangeSlice& s) const {
  if (s.count == items_.size()) return total_bytes_;
  uint64_t total = 0;
  for (auto [first, last] : s.extents) {
    for (size_t i = first; i < last; ++i) total += items_[i].byte_size();
  }
  return total;
}

}  // namespace roar::pps
