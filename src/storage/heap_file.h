// Append-oriented heap file of variable-length records over slotted
// pages. Base tables, R-join index clusters and W-table payloads store
// their bytes here; all access is counted by the buffer pool / disk.
#ifndef FGPM_STORAGE_HEAP_FILE_H_
#define FGPM_STORAGE_HEAP_FILE_H_

#include <functional>
#include <span>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace fgpm {

class HeapFile {
 public:
  explicit HeapFile(BufferPool* pool) : pool_(pool) {}
  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;
  HeapFile(HeapFile&&) = default;
  HeapFile& operator=(HeapFile&&) = default;

  // Appends a record (<= SlottedPage::kMaxRecordSize bytes).
  Result<Rid> Append(std::span<const char> record);

  // Reads records in place, under the pin of the page that holds them.
  // The pin is kept while consecutive reads land on the same page, so a
  // run of records sharing a page costs one pool access. A returned span
  // stays valid until the next Read or the reader's destruction.
  class Reader {
   public:
    explicit Reader(const HeapFile& file) : pool_(file.pool_) {}
    Result<std::span<const char>> Read(const Rid& rid);

   private:
    BufferPool* pool_;
    PageGuard guard_;
  };

  // Invokes fn(rid, bytes) for every live record in file order.
  Status Scan(
      const std::function<void(const Rid&, std::span<const char>)>& fn) const;

  size_t NumPages() const { return pages_.size(); }
  uint64_t NumRecords() const { return num_records_; }

  // --- persistence --------------------------------------------------------
  void SaveMeta(BinaryWriter* w) const;
  static Result<HeapFile> AttachMeta(BufferPool* pool, BinaryReader* r);

 private:
  BufferPool* pool_;
  std::vector<PageId> pages_;
  uint64_t num_records_ = 0;
};

}  // namespace fgpm

#endif  // FGPM_STORAGE_HEAP_FILE_H_
