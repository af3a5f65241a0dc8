#include "gdb/base_table.h"

#include <string>

namespace fgpm {

Status BaseTable::Insert(const GraphCodeRecord& rec) {
  std::string bytes;
  EncodeGraphCodes(rec, &bytes);
  FGPM_ASSIGN_OR_RETURN(Rid rid, heap_.Append({bytes.data(), bytes.size()}));
  return primary_.Insert(rec.node, rid.Pack());
}

Status BaseTable::Update(const GraphCodeRecord& rec) {
  // Must exist already (Update never grows the extent).
  FGPM_RETURN_IF_ERROR(primary_.Lookup(rec.node).status());
  std::string bytes;
  EncodeGraphCodes(rec, &bytes);
  FGPM_ASSIGN_OR_RETURN(Rid rid, heap_.Append({bytes.data(), bytes.size()}));
  return primary_.Upsert(rec.node, rid.Pack());
}

Status BaseTable::Get(NodeId node, GraphCodeRecord* rec) const {
  FGPM_ASSIGN_OR_RETURN(uint64_t packed, primary_.Lookup(node));
  HeapFile::Reader reader(heap_);
  FGPM_ASSIGN_OR_RETURN(std::span<const char> bytes,
                        reader.Read(Rid::Unpack(packed)));
  return DecodeGraphCodes(bytes, rec);
}

Status BaseTable::Scan(
    const std::function<void(const GraphCodeRecord&)>& fn) const {
  // Drive the scan from the primary index so superseded record versions
  // (left behind by Update's append-only rewrites) are never surfaced.
  Status inner;
  HeapFile::Reader reader(heap_);
  FGPM_RETURN_IF_ERROR(primary_.ScanRange(
      0, ~0ull, [&](uint64_t /*node*/, uint64_t packed_rid) {
        Result<std::span<const char>> bytes =
            reader.Read(Rid::Unpack(packed_rid));
        if (!bytes.ok()) {
          inner = bytes.status();
          return false;
        }
        GraphCodeRecord rec;
        inner = DecodeGraphCodes(*bytes, &rec);
        if (!inner.ok()) return false;
        fn(rec);
        return true;
      }));
  return inner;
}


void BaseTable::SaveMeta(BinaryWriter* w) const {
  w->U32(label_);
  heap_.SaveMeta(w);
  primary_.SaveMeta(w);
}

Result<BaseTable> BaseTable::AttachMeta(BufferPool* pool, BinaryReader* r) {
  uint32_t label = 0;
  FGPM_RETURN_IF_ERROR(r->U32(&label));
  FGPM_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::AttachMeta(pool, r));
  FGPM_ASSIGN_OR_RETURN(BPTree primary, BPTree::AttachMeta(pool, r));
  return BaseTable(label, std::move(heap), std::move(primary));
}

}  // namespace fgpm
