#include "gdb/rjoin_index.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "common/sorted_vector.h"

#include "common/logging.h"
#include "storage/slotted_page.h"

namespace fgpm {
namespace {

// Chunk record: [next handle u64][count u32][ids u32...].
constexpr size_t kChunkHeader = 12;
constexpr size_t kIdsPerChunk =
    (SlottedPage::kMaxRecordSize - kChunkHeader) / 4;
constexpr uint64_t kNullHandle = ~0ull;

}  // namespace

uint32_t NodeListStore::PagesFor(uint64_t count) {
  if (count == 0) return 0;
  return static_cast<uint32_t>((count + kIdsPerChunk - 1) / kIdsPerChunk);
}

Result<uint64_t> NodeListStore::Put(const std::vector<uint32_t>& ids) {
  if (ids.empty()) return Status::InvalidArgument("empty node list");
  // Write chunks back to front so each can point at its successor.
  uint64_t next = kNullHandle;
  size_t num_chunks = (ids.size() + kIdsPerChunk - 1) / kIdsPerChunk;
  std::string bytes;
  for (size_t c = num_chunks; c > 0; --c) {
    size_t begin = (c - 1) * kIdsPerChunk;
    size_t end = std::min(ids.size(), begin + kIdsPerChunk);
    uint32_t count = static_cast<uint32_t>(end - begin);
    bytes.assign(kChunkHeader + 4ull * count, '\0');
    std::memcpy(bytes.data(), &next, 8);
    std::memcpy(bytes.data() + 8, &count, 4);
    std::memcpy(bytes.data() + kChunkHeader, ids.data() + begin, 4ull * count);
    FGPM_ASSIGN_OR_RETURN(Rid rid, heap_.Append({bytes.data(), bytes.size()}));
    next = rid.Pack();
  }
  return next;
}

Status NodeListStore::Get(uint64_t handle,
                          std::vector<uint32_t>* out) const {
  out->clear();
  HeapFile::Reader reader(heap_);
  return AppendTo(handle, &reader, out);
}

Status NodeListStore::AppendTo(uint64_t handle, HeapFile::Reader* reader,
                               std::vector<uint32_t>* out) const {
  while (handle != kNullHandle) {
    FGPM_ASSIGN_OR_RETURN(std::span<const char> bytes,
                          reader->Read(Rid::Unpack(handle)));
    if (bytes.size() < kChunkHeader) {
      return Status::Corruption("node list chunk too short");
    }
    uint64_t next;
    uint32_t count;
    std::memcpy(&next, bytes.data(), 8);
    std::memcpy(&count, bytes.data() + 8, 4);
    if (bytes.size() != kChunkHeader + 4ull * count) {
      return Status::Corruption("node list chunk size mismatch");
    }
    size_t old = out->size();
    // Reserve with one chunk of lookahead when the chain continues
    // (every chunk but the last is full, so the lookahead is exact
    // until the tail): single-chunk lists allocate exactly instead of
    // geometrically. Long chains still double to stay amortized O(n).
    size_t need = old + count + (next != kNullHandle ? kIdsPerChunk : 0);
    if (out->capacity() < need) {
      out->reserve(std::max(need, 2 * out->capacity()));
    }
    out->resize(old + count);
    std::memcpy(out->data() + old, bytes.data() + kChunkHeader, 4ull * count);
    handle = next;
  }
  return Status::OK();
}

uint64_t RJoinIndex::DirectoryKey(CenterId w, Side side, LabelId label) {
  FGPM_DCHECK(label < (1u << 30));
  return (static_cast<uint64_t>(w) << 32) |
         (static_cast<uint64_t>(side) << 31) | label;
}

Status RJoinIndex::Build(const Graph& g, const TwoHopLabeling& labeling,
                         const std::vector<uint8_t>* owned_labels) {
  FGPM_CHECK(g.finalized());
  // Group nodes into labeled subclusters. std::map keeps directory
  // insertion in key order (B+-tree bulk-friendly).
  std::map<uint64_t, std::vector<NodeId>> clusters;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    LabelId l = g.label_of(v);
    if (owned_labels != nullptr && (*owned_labels)[l] == 0) continue;
    for (CenterId w : labeling.OutCode(v)) {
      clusters[DirectoryKey(w, Side::kF, l)].push_back(v);
    }
    for (CenterId w : labeling.InCode(v)) {
      clusters[DirectoryKey(w, Side::kT, l)].push_back(v);
    }
  }
  total_entries_ = 0;
  for (const auto& [key, nodes] : clusters) {
    FGPM_ASSIGN_OR_RETURN(uint64_t handle, store_.Put(nodes));
    FGPM_RETURN_IF_ERROR(directory_.Insert(key, handle));
    total_entries_ += nodes.size();
  }
  return Status::OK();
}

Status RJoinIndex::ListCenterSubclusters(
    CenterId w, std::vector<SubclusterInfo>* out) const {
  out->clear();
  uint64_t lo = static_cast<uint64_t>(w) << 32;
  uint64_t hi = lo | 0xffffffffull;
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  FGPM_RETURN_IF_ERROR(
      directory_.ScanRange(lo, hi, [&](uint64_t key, uint64_t handle) {
        entries.emplace_back(key, handle);
        return true;
      }));
  std::vector<NodeId> nodes;
  for (const auto& [key, handle] : entries) {
    FGPM_RETURN_IF_ERROR(store_.Get(handle, &nodes));
    SubclusterInfo info;
    info.side = static_cast<Side>((key >> 31) & 1);
    info.label = static_cast<LabelId>(key & 0x7fffffffull);
    info.size = static_cast<uint32_t>(nodes.size());
    out->push_back(info);
  }
  return Status::OK();
}

Status RJoinIndex::AddToCluster(CenterId w, Side side, LabelId label,
                                NodeId node) {
  uint64_t key = DirectoryKey(w, side, label);
  std::vector<NodeId> nodes;
  FGPM_RETURN_IF_ERROR(GetCluster(w, side, label, &nodes));
  if (!SortedInsert(&nodes, node)) return Status::OK();  // already present
  FGPM_ASSIGN_OR_RETURN(uint64_t handle, store_.Put(nodes));
  FGPM_RETURN_IF_ERROR(directory_.Upsert(key, handle));
  ++total_entries_;
  return Status::OK();
}

Status RJoinIndex::GetCluster(CenterId w, Side side, LabelId label,
                              std::vector<NodeId>* out) const {
  out->clear();
  Result<uint64_t> handle = directory_.Lookup(DirectoryKey(w, side, label));
  if (!handle.ok()) {
    if (handle.status().code() == StatusCode::kNotFound) return Status::OK();
    return handle.status();
  }
  return store_.Get(*handle, out);
}

Status RJoinIndex::ReadSubclusters(std::span<const CenterId> centers,
                                   Side side, LabelId label,
                                   SubclusterRun* out) const {
  // A fixed (side, label) keeps the directory keys in center order.
  std::vector<uint64_t> keys(centers.size());
  for (size_t i = 0; i < centers.size(); ++i) {
    keys[i] = DirectoryKey(centers[i], side, label);
  }
  std::vector<uint64_t> handles(centers.size(), kNullHandle);
  FGPM_RETURN_IF_ERROR(directory_.LookupSorted(
      keys, [&](size_t i, uint64_t handle) { handles[i] = handle; }));
  out->offsets.assign(1, 0);
  out->offsets.reserve(centers.size() + 1);
  out->ids.clear();
  HeapFile::Reader reader = store_.NewReader();
  for (uint64_t handle : handles) {
    FGPM_RETURN_IF_ERROR(store_.AppendTo(handle, &reader, &out->ids));
    out->offsets.push_back(out->ids.size());
  }
  return Status::OK();
}

void RJoinIndex::SaveMeta(BinaryWriter* w) const {
  store_.SaveMeta(w);
  directory_.SaveMeta(w);
  w->U64(total_entries_);
}

Result<RJoinIndex> RJoinIndex::AttachMeta(BufferPool* pool, BinaryReader* r) {
  FGPM_ASSIGN_OR_RETURN(NodeListStore store, NodeListStore::AttachMeta(pool, r));
  FGPM_ASSIGN_OR_RETURN(BPTree directory, BPTree::AttachMeta(pool, r));
  uint64_t total = 0;
  FGPM_RETURN_IF_ERROR(r->U64(&total));
  return RJoinIndex(std::move(store), std::move(directory), total);
}

}  // namespace fgpm
