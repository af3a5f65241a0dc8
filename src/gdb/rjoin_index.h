// Cluster-based R-join index (Section 3.2). For each 2-hop center w it
// stores the labeled F-subclusters (nodes of a given label that reach w)
// and T-subclusters (nodes of a given label reachable from w). HPSJ and
// the Fetch step of HPSJ+ answer R-joins directly from these clusters —
// node identifiers are kept in the index, so base tables need not be
// touched (the paper's key point).
//
// On storage: a B+-tree directory maps (center, side, label) to a chunk
// chain in a heap file; every cluster access costs counted page reads.
#ifndef FGPM_GDB_RJOIN_INDEX_H_
#define FGPM_GDB_RJOIN_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "reach/two_hop.h"
#include "storage/bptree.h"
#include "storage/heap_file.h"

namespace fgpm {

// Chunked storage for node-id lists larger than a page.
class NodeListStore {
 public:
  explicit NodeListStore(BufferPool* pool) : heap_(pool) {}
  NodeListStore(NodeListStore&&) = default;
  NodeListStore& operator=(NodeListStore&&) = default;

  // Writes a list; returns an opaque handle.
  Result<uint64_t> Put(const std::vector<uint32_t>& ids);

  // Reads the full list behind a handle.
  Status Get(uint64_t handle, std::vector<uint32_t>* out) const;

  // Appends the list behind a handle to `out`, copying each chunk's ids
  // straight from its page through `reader` (see HeapFile::Reader).
  Status AppendTo(uint64_t handle, HeapFile::Reader* reader,
                  std::vector<uint32_t>* out) const;
  HeapFile::Reader NewReader() const { return HeapFile::Reader(heap_); }

  // Number of chunk pages a list of this size occupies (for costing).
  static uint32_t PagesFor(uint64_t count);

  // --- persistence --------------------------------------------------------
  void SaveMeta(BinaryWriter* w) const { heap_.SaveMeta(w); }
  static Result<NodeListStore> AttachMeta(BufferPool* pool, BinaryReader* r) {
    FGPM_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::AttachMeta(pool, r));
    return NodeListStore(std::move(heap));
  }

 private:
  explicit NodeListStore(HeapFile heap) : heap_(std::move(heap)) {}

  HeapFile heap_;
};

// Subclusters of a run of centers, concatenated: subcluster i is
// ids[offsets[i], offsets[i + 1]).
struct SubclusterRun {
  std::vector<uint64_t> offsets;
  std::vector<NodeId> ids;

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const NodeId> operator[](size_t i) const {
    return {ids.data() + offsets[i], ids.data() + offsets[i + 1]};
  }
};

class RJoinIndex {
 public:
  enum class Side : uint8_t { kF = 0, kT = 1 };

  explicit RJoinIndex(BufferPool* pool) : store_(pool), directory_(pool) {}
  RJoinIndex(RJoinIndex&&) = default;
  RJoinIndex& operator=(RJoinIndex&&) = default;

  // Materializes all labeled subclusters from the 2-hop labeling. When
  // `owned_labels` is non-null (one byte per label, nonzero = owned),
  // only subclusters of owned labels are stored — the label-partitioned
  // build of GraphDatabaseOptions::owned_labels.
  Status Build(const Graph& g, const TwoHopLabeling& labeling,
               const std::vector<uint8_t>* owned_labels = nullptr);

  // Adds `node` (labeled `label`) to center w's subcluster on `side`,
  // creating the subcluster if absent. Node lists are rewritten (the
  // store is append-only); used by incremental edge insertion.
  Status AddToCluster(CenterId w, Side side, LabelId label, NodeId node);

  // getF(w, X): X-labeled nodes that can reach center w. Empty vector if
  // the subcluster does not exist.
  Status GetF(CenterId w, LabelId x, std::vector<NodeId>* out) const {
    return GetCluster(w, Side::kF, x, out);
  }
  // getT(w, Y): Y-labeled nodes reachable from center w.
  Status GetT(CenterId w, LabelId y, std::vector<NodeId>* out) const {
    return GetCluster(w, Side::kT, y, out);
  }

  // Batch read: the `side`/`label` subcluster of every center in
  // `centers` (ascending, distinct) into `out`, in directory-key order —
  // one BPTree::LookupSorted walk over the directory, then one pass over
  // the chunk pages that keeps a page pinned while consecutive chunks
  // share it. A missing subcluster reads as empty.
  Status ReadSubclusters(std::span<const CenterId> centers, Side side,
                         LabelId label, SubclusterRun* out) const;

  uint64_t NumSubclusters() const { return directory_.NumEntries(); }
  uint64_t TotalEntries() const { return total_entries_; }

  // Enumerates a center's subclusters with their sizes (directory range
  // scan; used by incremental maintenance to diff W-table/statistics).
  struct SubclusterInfo {
    Side side;
    LabelId label;
    uint32_t size;
  };
  Status ListCenterSubclusters(CenterId w,
                               std::vector<SubclusterInfo>* out) const;

  static uint64_t DirectoryKey(CenterId w, Side side, LabelId label);

  // --- persistence --------------------------------------------------------
  void SaveMeta(BinaryWriter* w) const;
  static Result<RJoinIndex> AttachMeta(BufferPool* pool, BinaryReader* r);

 private:
  RJoinIndex(NodeListStore store, BPTree directory, uint64_t total)
      : store_(std::move(store)),
        directory_(std::move(directory)),
        total_entries_(total) {}

  Status GetCluster(CenterId w, Side side, LabelId label,
                    std::vector<NodeId>* out) const;

  NodeListStore store_;
  BPTree directory_;  // DirectoryKey -> NodeListStore handle
  uint64_t total_entries_ = 0;
};

}  // namespace fgpm

#endif  // FGPM_GDB_RJOIN_INDEX_H_
