// Disk-resident B+-tree with 8-byte keys and 8-byte values, built on the
// buffer pool. Used for: primary indexes on base tables (node id -> RID),
// the W-table (packed label pair -> payload RID), and the cluster-based
// R-join index directory (center id -> cluster RID).
//
// Deletion is implemented lazily (entries are removed from leaves without
// rebalancing) — every workload in this system is build-once/read-many.
#ifndef FGPM_STORAGE_BPTREE_H_
#define FGPM_STORAGE_BPTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "common/serialize.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace fgpm {

class BPTree {
 public:
  explicit BPTree(BufferPool* pool);
  BPTree(const BPTree&) = delete;
  BPTree& operator=(const BPTree&) = delete;
  BPTree(BPTree&&) = default;
  BPTree& operator=(BPTree&&) = default;

  // Inserts a unique key; AlreadyExists if present.
  Status Insert(uint64_t key, uint64_t value);

  // Inserts or overwrites.
  Status Upsert(uint64_t key, uint64_t value);

  // Point lookup: the one-key case of LookupSorted (Height() pool
  // accesses).
  Result<uint64_t> Lookup(uint64_t key) const;

  // Batch lookup of ascending keys (duplicates allowed): calls
  // found(i, value) for every keys[i] present, in order. Descends once,
  // then walks leaves left to right through the next-leaf links,
  // descending again only when a key lies past the next leaf — so a run
  // of keys sharing leaves costs one pool access per leaf, not a
  // descent per key.
  Status LookupSorted(std::span<const uint64_t> keys,
                      const std::function<void(size_t, uint64_t)>& found) const;
  bool Contains(uint64_t key) const { return Lookup(key).ok(); }

  // Removes a key. NotFound if absent.
  Status Delete(uint64_t key);

  // Visits entries with key in [lo, hi] ascending; stop early by
  // returning false from fn.
  Status ScanRange(uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t, uint64_t)>& fn) const;

  uint64_t NumEntries() const { return num_entries_; }
  uint32_t Height() const { return height_; }

  // Node fan-out constants (exposed for tests).
  static constexpr size_t kLeafCapacity = (kPageSize - 8) / 16;     // 511
  static constexpr size_t kInternalCapacity = (kPageSize - 16) / 12;  // 681

  // --- persistence --------------------------------------------------------
  // Writes/reads the tree's metadata (root page id, entry count, height);
  // the node pages themselves are persisted by the disk manager.
  void SaveMeta(BinaryWriter* w) const;
  static Result<BPTree> AttachMeta(BufferPool* pool, BinaryReader* r);

 private:
  struct AttachTag {};
  BPTree(BufferPool* pool, AttachTag, PageId root, uint64_t entries,
         uint32_t height)
      : pool_(pool), root_(root), num_entries_(entries), height_(height) {}

  struct SplitInfo {
    uint64_t separator;
    PageId new_page;
  };

  Result<std::optional<SplitInfo>> InsertRec(PageId node, uint64_t key,
                                             uint64_t value, bool overwrite,
                                             bool* inserted);
  // Descends to the leaf that holds (or would hold) `key`; the leaf
  // comes back pinned.
  Result<PageGuard> FindLeaf(uint64_t key) const;

  BufferPool* pool_;
  PageId root_ = kInvalidPage;
  uint64_t num_entries_ = 0;
  uint32_t height_ = 1;
};

}  // namespace fgpm

#endif  // FGPM_STORAGE_BPTREE_H_
