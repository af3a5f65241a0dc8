// GraphDatabase: the paper's GDB — |Sigma| base tables with graph codes,
// the cluster-based R-join index, the W-table and catalog statistics, all
// resident in the paged storage engine so every access is I/O-counted.
#ifndef FGPM_GDB_DATABASE_H_
#define FGPM_GDB_DATABASE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "gdb/base_table.h"
#include "gdb/catalog.h"
#include "gdb/rjoin_index.h"
#include "gdb/wtable.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "reach/two_hop.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace fgpm {

struct GraphDatabaseOptions {
  // The paper's experiments use a 1 MiB buffer.
  size_t buffer_pool_bytes = 1 << 20;
  // Exact greedy set-cover labeling instead of the pruned builder (small
  // graphs only; used by tests and the cover-size ablation).
  bool use_greedy_cover = false;
  // Capacity of the working cache for (x, out(x)) pairs that the paper
  // introduces for getCenters (Section 3.3). Zero disables caching. The
  // default (~160 KiB of decoded codes) is sized to respect the paper's
  // 1 MiB total memory budget — a cache that holds every node would hide
  // the row-proportional I/O the paper's cost model charges filters for.
  size_t code_cache_capacity = 4096;
  // Worker threads for the 2-hop cover construction (0 = one per
  // hardware thread). The default of 1 reproduces the sequential builder
  // exactly; higher values use the batch-parallel builder, which yields
  // an equally valid (but not entry-identical) cover.
  unsigned build_threads = 1;
  // Buffer-pool shards (BufferPoolOptions::num_shards). 0 = auto: next
  // power of two >= hardware threads, capped at 64. 1 = the legacy
  // single-latch pool.
  size_t buffer_pool_shards = 0;
  // Code-cache lock stripes. 0 = auto (same rule as pool shards). Each
  // stripe holds code_cache_capacity / stripes entries under its own
  // shared_mutex, so concurrent getCenters probes only contend when two
  // workers hash to the same stripe.
  size_t code_cache_stripes = 0;
  // Code length at which a center's in()/out() code gets a chunked
  // bitmap sidecar in the labeling (hub x hub probes become word-AND
  // loops). 0 keeps every probe on the flat sorted arrays. See
  // kDefaultCodeBitmapThreshold.
  uint32_t code_bitmap_threshold = kDefaultCodeBitmapThreshold;
  // Label ownership filter for sharded serving (src/shard). Empty = own
  // every label (the default, and the only mode non-sharded callers
  // use). When set (one byte per label, nonzero = owned), Build still
  // computes the full 2-hop cover, W-table and catalog — routing and
  // cross-shard coordination need the global view — but materializes
  // base-table tuples and R-join subclusters only for owned labels, so
  // a shard's buffer pool and code cache hold nothing but its own
  // partition. Queries whose labels are all owned execute exactly as on
  // an unfiltered database; GetCodes for a non-owned label's node fails
  // with NotFound (the cross-shard coordinator reads codes from the
  // owning shard instead).
  std::vector<uint8_t> owned_labels;
};

// Counter snapshot for experiment reporting.
struct IoSnapshot {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t code_cache_hits = 0;
  uint64_t code_cache_misses = 0;
};

class GraphDatabase {
 public:
  explicit GraphDatabase(GraphDatabaseOptions options = {});
  GraphDatabase(const GraphDatabase&) = delete;
  GraphDatabase& operator=(const GraphDatabase&) = delete;

  // Computes the 2-hop cover, loads base tables, builds the R-join index,
  // W-table and catalog. Must be called exactly once.
  Status Build(const Graph& g);

  // --- incremental maintenance ---------------------------------------------
  // Applies a newly inserted edge (u, v) across the whole database: the
  // 2-hop labeling gains one cluster (the update problem of [24]), the
  // affected base-table tuples are rewritten with their new codes, the
  // cluster-based R-join index and W-table gain the corresponding
  // subcluster entries, and catalog statistics are adjusted. `g_after`
  // must be the finalized graph already containing the edge. Fails with
  // FailedPrecondition when the edge merges SCCs (rebuild instead).
  Status ApplyEdgeInsert(const Graph& g_after, NodeId u, NodeId v);

  // --- persistence --------------------------------------------------------
  // Saves every page plus all component manifests (tree roots, heap page
  // lists, catalog, labeling) to one file; Open restores a fully
  // queryable database without recomputing the 2-hop cover.
  Status Save(const std::string& path) const;
  static Result<std::unique_ptr<GraphDatabase>> Open(
      const std::string& path, GraphDatabaseOptions options = {});

  // --- metadata ---------------------------------------------------------
  // Monotone statistics/semantics epoch: bumped whenever an applied
  // update changes reachability (ApplyEdgeInsert with any rewritten
  // codes). Query-level caches (GraphMatcher's plan cache and result
  // cache) snapshot the epoch when they fill and self-invalidate when
  // it moves — one relaxed load per lookup, no registration protocol.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  const GraphDatabaseOptions& options() const { return options_; }
  uint32_t num_labels() const { return catalog_.num_labels(); }
  const Catalog& catalog() const { return catalog_; }
  uint64_t NumNodes() const { return catalog_.NumNodes(); }

  // --- storage components ------------------------------------------------
  const BaseTable& table(LabelId l) const { return *tables_[l]; }
  const RJoinIndex& rjoin_index() const { return *rjoin_index_; }
  const WTable& wtable() const { return *wtable_; }

  // In-memory labeling kept for verification and examples. Execution
  // paths read codes from the base tables (I/O-counted), not from here.
  const TwoHopLabeling& labeling() const { return labeling_; }

  // --- graph codes with the working cache --------------------------------
  // Fetches in(x)/out(x) through the primary index, caching decoded
  // records (the paper's getCenters cache). Safe to call from parallel
  // execution workers: the cache is striped (per-stripe shared_mutex,
  // CLOCK eviction — hits take only a shared lock and flip an atomic
  // reference bit), and the storage read path is sharded rather than
  // globally serialized.
  Status GetCodes(NodeId v, LabelId label, GraphCodeRecord* rec) const;

  void set_code_cache_enabled(bool enabled);
  bool code_cache_enabled() const { return cache_enabled_; }

  // --- I/O accounting -----------------------------------------------------
  IoSnapshot Io() const;
  void ResetIo();
  BufferPool* buffer_pool() { return pool_.get(); }
  const BufferPool* buffer_pool() const { return pool_.get(); }
  size_t code_cache_stripes() const { return num_stripes_; }

 private:
  GraphDatabaseOptions options_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::vector<std::unique_ptr<BaseTable>> tables_;
  std::unique_ptr<RJoinIndex> rjoin_index_;
  std::unique_ptr<WTable> wtable_;
  Catalog catalog_;
  TwoHopLabeling labeling_;
  bool built_ = false;
  std::atomic<uint64_t> epoch_{0};

  // Striped read-mostly code cache. Each stripe is an independent CLOCK
  // (second-chance) cache: hits take the stripe's shared lock, copy the
  // record and set an atomic reference bit; misses take the exclusive
  // lock only for the double-checked insert. CLOCK instead of a splice-
  // on-hit LRU keeps the hit path free of list surgery (and thus of the
  // exclusive lock); single-threaded behavior is deterministic.
  struct CacheEntry {
    GraphCodeRecord rec;
    std::atomic<bool> referenced{false};
  };
  struct CacheStripe {
    std::shared_mutex mu;
    std::unordered_map<NodeId, CacheEntry> map;
    std::deque<NodeId> ring;  // CLOCK order; front = hand
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };
  size_t StripeOf(NodeId v) const { return v & stripe_mask_; }
  void ClearCodeCache() const;

  bool cache_enabled_ = true;
  // unique_ptr<[]> so stripes (non-movable: mutex + atomics) can be
  // mutated from const readers without a mutable qualifier per field.
  std::unique_ptr<CacheStripe[]> stripes_;
  size_t num_stripes_ = 0;
  size_t stripe_mask_ = 0;
  size_t stripe_capacity_ = 0;
  // Process-wide registry counters mirroring the per-stripe atomics;
  // no-ops when obs is compiled out or disabled.
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
};

}  // namespace fgpm

#endif  // FGPM_GDB_DATABASE_H_
