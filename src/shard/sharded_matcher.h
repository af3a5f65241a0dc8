// ShardedMatcher: a GraphDatabase partitioned into N label-aware shards,
// each owning its own buffer pool, code arena/cache, executor and
// matcher-level caches — the execution substrate of the query server
// (src/net). The 2-hop cover, W-table and catalog are global on every
// shard (routing and cross-shard joins need the global view); base
// tables and R-join subclusters are partitioned by label ownership
// (GraphDatabaseOptions::owned_labels), so a shard's hot path never
// crosses another shard's latches.
//
// Routing: a pattern whose labels all map to one shard executes there
// exactly as on an unsharded database (row-identical). Otherwise a
// scatter-gather coordinator splits the pattern into shard-local
// connected sub-patterns (executed by their owning shards, composing
// with the result cache and MatchBatch), then joins them across
// the cross-shard edges by shipping *semijoin center filters* — the
// compact sorted center lists of the 2-hop codes — between shards
// instead of rows:
//   * seed          — an all-cross pattern starts from one cross edge,
//                     materialized HPSJ-style from both shards' F/T
//                     subcluster spans per shared center;
//   * merge         — an unmerged sub-result joins in through a cross
//                     edge: the bound side ships per-value center
//                     filters (out-code ∩ W(X,Y)), the other side's
//                     in-codes are probed against them, and only the
//                     verified (a, b) pairs drive a hash join;
//   * expand        — a pattern node with no shard-local edge is bound
//                     by fetching the owning shard's T-/F-subclusters
//                     for the shipped center filter (HPSJ+ fetch across
//                     shards);
//   * filter        — remaining cross edges prune rows with memoized
//                     out ∩ in code probes.
// Every step reads remote shards only through GraphDatabase's
// thread-safe read path (GetCodes / R-join index / W-table), never
// through another shard's matcher.
//
// Thread model: shard(s)->Match and the inline ShardedMatcher::Match
// are caller-synchronized (one logical owner per shard — the server
// pins shard s to worker s). JoinCross may run on any thread once the
// sub-results are in hand.
#ifndef FGPM_SHARD_SHARDED_MATCHER_H_
#define FGPM_SHARD_SHARDED_MATCHER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/graph_matcher.h"

namespace fgpm {

struct ShardedMatcherOptions {
  uint32_t num_shards = 1;
  // Explicit label -> shard placement (one entry per graph label, each
  // < num_shards). Empty = PartitionLabelsByExtent. Workload-aware
  // placements (co-locating labels that are queried together) turn
  // cross-shard patterns into single-shard ones — the biggest lever the
  // serving bench exercises.
  std::vector<uint32_t> label_to_shard;
  // Per-shard database template. owned_labels is filled in per shard;
  // buffer_pool_bytes and code_cache_capacity are PER SHARD (callers
  // holding a total budget fixed across shard counts divide first).
  GraphDatabaseOptions db;
  // Per-shard matcher execution options (thread-per-core servers keep
  // num_threads = 1 so a shard never oversubscribes its core).
  ExecOptions exec;
};

// Accounting of cross-shard coordination (one Match / JoinCross call,
// also mirrored into fgpm_shard_* registry counters).
struct CrossShardStats {
  uint64_t subqueries = 0;       // shard-local sub-pattern executions
  uint64_t cross_edges = 0;      // pattern edges joined across shards
  uint64_t filters_shipped = 0;  // semijoin center filters shipped
  uint64_t filter_ids = 0;       // center ids inside those filters
  uint64_t cluster_fetches = 0;  // remote F/T subcluster reads
  uint64_t probe_pairs = 0;      // (a, b) code-intersection probes
};

class ShardedMatcher {
 public:
  static Result<std::unique_ptr<ShardedMatcher>> Create(
      const Graph* g, ShardedMatcherOptions options = {});

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  const std::vector<uint32_t>& label_to_shard() const {
    return label_to_shard_;
  }
  GraphMatcher* shard(uint32_t s) { return shards_[s].get(); }
  const Graph& graph() const { return *graph_; }

  // Home shard when every (known) pattern label maps to one shard;
  // nullopt when the pattern spans shards. Unknown labels (empty result
  // by definition) don't pin the query anywhere.
  std::optional<uint32_t> Route(const Pattern& p) const;

  // Routes and executes on the calling thread (cross-shard sub-queries
  // run inline, sequentially). Row-identical to an unsharded
  // GraphMatcher::Match. Caller-synchronized. `options.projection` is
  // only supported on the single-shard path.
  Result<MatchResult> Match(const Pattern& p, MatchOptions options = {},
                            CrossShardStats* stats = nullptr);
  Result<MatchResult> Match(std::string_view pattern_text,
                            MatchOptions options = {},
                            CrossShardStats* stats = nullptr);

  // --- scatter-gather pieces (the server schedules subs itself) ---------
  struct CrossSub {
    uint32_t shard = 0;
    Pattern pattern;                   // connected shard-local sub-pattern
    std::vector<PatternNodeId> cols;   // sub node i -> parent pattern node
  };
  struct CrossPlan {
    std::vector<CrossSub> subs;
    std::vector<PatternEdge> cross_edges;  // parent-pattern node ids
    std::vector<PatternNodeId> isolated;   // nodes with no shard-local edge
  };
  Result<CrossPlan> PlanCross(const Pattern& p) const;

  // Joins sub-results (aligned with plan.subs; each row-identical to a
  // solo Match of plan.subs[k].pattern) into the final result. Reads
  // remote shards through thread-safe paths only.
  Result<MatchResult> JoinCross(const Pattern& p, const CrossPlan& plan,
                                std::vector<MatchResult> sub_results,
                                CrossShardStats* stats);

 private:
  ShardedMatcher(const Graph* g, std::vector<uint32_t> label_to_shard)
      : graph_(g), label_to_shard_(std::move(label_to_shard)) {}

  // Per-call scratch: codes resolved against owning shards, memoized by
  // node id (a node's codes are label-independent).
  struct CodeMemo {
    std::unordered_map<NodeId, std::vector<CenterId>> out, in;
  };
  Status Codes(PatternNodeId u, NodeId v, bool out_side, CodeMemo* memo,
               const std::vector<LabelId>& labels,
               const std::vector<CenterId>** codes);

  const Graph* graph_;
  std::vector<uint32_t> label_to_shard_;
  std::vector<std::unique_ptr<GraphMatcher>> shards_;
};

}  // namespace fgpm

#endif  // FGPM_SHARD_SHARDED_MATCHER_H_
