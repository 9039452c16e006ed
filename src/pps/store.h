// The server-side metadata store (§5.6.2).
//
// Metadata are kept sorted by ring id in one logical "file". A sparse
// pointer index (one pointer per block) supports partial loading: when a
// ROAR sub-query covers only a slice of the id space, the server reads just
// the blocks intersecting that slice. The thesis stores this on NFS/ext2;
// here storage is an in-memory vector plus an explicit I/O *model* (stream
// rate + per-extent seek) that the pipeline charges when the store is in
// the cold or buffer-cache state. That reproduces the disk-bound vs
// CPU-bound behaviour of Figures 5.4–5.7 deterministically, without
// depending on the benchmark host's actual disk.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ring_id.h"
#include "pps/file_metadata.h"

namespace roar::pps {

// Where the bytes come from, and at what cost (§5.7's three regimes).
enum class SourceMode {
  kColdDisk,     // sequential stream at disk_mb_s, seek per extent
  kBufferCache,  // stream at cache_mb_s (the OS page-cache rate)
  kMemory,       // in-memory LRU cache hit: no I/O charge
};

struct IoModel {
  double disk_mb_s = 66.0;    // paper: 66 MB/s effective (85 raw)
  double cache_mb_s = 700.0;  // page-cache copy rate
  double seek_s = 0.010;      // 10 ms per seek (paper §5.7.2)

  // Seconds charged for reading `bytes` as `extents` contiguous runs.
  double read_seconds(SourceMode mode, uint64_t bytes,
                      uint32_t extents = 1) const;
};

class MetadataStore {
 public:
  // Block granularity of the pointer index (entries per pointer).
  explicit MetadataStore(size_t block_entries = 1024);

  // Bulk-loads and sorts by id. Invalidates previous contents.
  void load(std::vector<EncryptedFileMetadata> items);

  void insert(EncryptedFileMetadata item);
  // Removes all metadata with ids inside `arc`. Returns count removed.
  size_t erase_range(const Arc& arc);
  // Keeps only metadata with ids inside `arc` (node range shrink/grow).
  size_t retain_range(const Arc& arc);

  size_t size() const { return items_.size(); }
  uint64_t total_bytes() const { return total_bytes_; }
  const std::vector<EncryptedFileMetadata>& items() const { return items_; }

  // Indices of items whose id lies in `arc`, in storage order; the range
  // may wrap, producing up to two extents. Uses the pointer index for the
  // initial binary search (O(log n + k)).
  struct RangeSlice {
    // [first, last) index pairs, at most two (wrap).
    std::vector<std::pair<size_t, size_t>> extents;
    size_t count = 0;
  };
  RangeSlice slice(const Arc& arc) const;
  // Encrypted bytes the slice covers (O(count); O(1) for a full slice).
  uint64_t bytes(const RangeSlice& s) const;

  // Full-store slice (single extent).
  RangeSlice slice_all() const;

 private:
  void rebuild_index();
  size_t lower_bound_index(RingId id) const;

  size_t block_entries_;
  std::vector<EncryptedFileMetadata> items_;  // sorted by id
  std::vector<std::pair<RingId, size_t>> index_;  // sparse pointers
  uint64_t total_bytes_ = 0;
};

}  // namespace roar::pps
