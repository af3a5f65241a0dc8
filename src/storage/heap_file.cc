#include "storage/heap_file.h"

#include "storage/slotted_page.h"

namespace fgpm {

Result<Rid> HeapFile::Append(std::span<const char> record) {
  if (record.size() > SlottedPage::kMaxRecordSize) {
    return Status::InvalidArgument("record larger than a page");
  }
  if (!pages_.empty()) {
    FGPM_ASSIGN_OR_RETURN(PageGuard g, pool_->Fetch(pages_.back()));
    SlottedPage sp(&g.MutablePage());
    if (auto slot = sp.Insert(record)) {
      ++num_records_;
      return Rid{pages_.back(), *slot};
    }
  }
  FGPM_ASSIGN_OR_RETURN(PageGuard g, pool_->New());
  SlottedPage sp(&g.MutablePage());
  sp.Init();
  auto slot = sp.Insert(record);
  if (!slot) return Status::Internal("record does not fit in empty page");
  pages_.push_back(g.id());
  ++num_records_;
  return Rid{g.id(), *slot};
}

Result<std::span<const char>> HeapFile::Reader::Read(const Rid& rid) {
  if (!guard_.valid() || guard_.id() != rid.page) {
    guard_.Release();
    FGPM_ASSIGN_OR_RETURN(guard_, pool_->Fetch(rid.page));
  }
  // SlottedPage is a read-only view here; const_cast avoids a second,
  // const view class.
  SlottedPage sp(const_cast<Page*>(&guard_.page()));
  auto rec = sp.Get(rid.slot);
  if (!rec) return Status::NotFound("no record at rid");
  return *rec;
}

void HeapFile::SaveMeta(BinaryWriter* w) const {
  w->VecU32(pages_);
  w->U64(num_records_);
}

Result<HeapFile> HeapFile::AttachMeta(BufferPool* pool, BinaryReader* r) {
  HeapFile hf(pool);
  FGPM_RETURN_IF_ERROR(r->VecU32(&hf.pages_));
  FGPM_RETURN_IF_ERROR(r->U64(&hf.num_records_));
  return hf;
}

Status HeapFile::Scan(
    const std::function<void(const Rid&, std::span<const char>)>& fn) const {
  for (PageId pid : pages_) {
    FGPM_ASSIGN_OR_RETURN(PageGuard g, pool_->Fetch(pid));
    SlottedPage sp(const_cast<Page*>(&g.page()));
    for (uint16_t s = 0; s < sp.num_slots(); ++s) {
      if (auto rec = sp.Get(s)) fn(Rid{pid, s}, *rec);
    }
  }
  return Status::OK();
}

}  // namespace fgpm
