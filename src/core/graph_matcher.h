// fgpm::GraphMatcher — the library's front door.
//
//   fgpm::Graph g = fgpm::gen::XMarkLike({.factor = 0.01});
//   auto matcher = fgpm::GraphMatcher::Create(&g);
//   auto result = (*matcher)->Match("site->region; region->item");
//   for (const auto& row : result->rows) ...
//
// Engines:
//   kDps       — R-join order interleaved with R-semijoins (Section 4.2,
//                the paper's best performer); default.
//   kDp        — R-join-only dynamic programming (Section 4.1).
//   kCanonical — first valid left-deep plan, no cost model.
//   kIntDp     — IGMJ sort-merge baseline with DP ordering (Section 5.2).
//   kTsd       — TwigStackD-style holistic baseline; DAG data only
//                (Section 5.1).
//   kNaive     — backtracking over a BFS oracle (ground truth).
#ifndef FGPM_CORE_GRAPH_MATCHER_H_
#define FGPM_CORE_GRAPH_MATCHER_H_

#include <deque>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "baseline/igmj.h"
#include "baseline/tsd.h"
#include "common/status.h"
#include "core/result_cache.h"
#include "exec/engine.h"
#include "exec/plan.h"
#include "gdb/database.h"
#include "graph/graph.h"
#include "opt/explain.h"
#include "query/containment.h"
#include "query/pattern.h"

namespace fgpm {

enum class Engine {
  kDps,
  kDp,
  kCanonical,
  kIntDp,
  kTsd,
  kNaive,
};

const char* EngineName(Engine e);

struct MatchOptions {
  Engine engine = Engine::kDps;
  // Drop transitively implied pattern edges before planning.
  bool transitive_reduction = false;
  // Labels to keep in the result (the projection of Eq. 2); empty keeps
  // all pattern labels. Projected results are re-deduplicated. Every
  // name must be a pattern label.
  std::vector<std::string> projection;
  // Reuse optimized plans across calls with the same (pattern, engine).
  bool use_plan_cache = true;
};

// One entry of the matcher's slow-query log (ExecOptions::slow_query_ms).
struct SlowQuery {
  std::string pattern_text;
  Engine engine = Engine::kDps;
  double elapsed_ms = 0;   // optimize + execute
  double optimize_ms = 0;
  uint64_t result_rows = 0;
};

// Aggregate accounting of one MatchBatch call.
struct BatchStats {
  uint64_t queries = 0;          // patterns submitted
  uint64_t unique_queries = 0;   // after canonical-form dedup
  uint64_t cache_exact = 0;      // answered by a result-cache exact hit
  uint64_t cache_replay = 0;     // answered by containment replay
};

// EXPLAIN ANALYZE: the optimizer's estimates, the actual execution, and
// the combined per-step profile report. `chrome_trace_json` is a Chrome
// trace_event dump of the per-step spans (empty when obs is compiled
// out).
struct ExplainAnalyzeResult {
  PlanExplanation explanation;
  MatchResult result;
  std::string report;  // explanation.ToStringWithActuals(result.stats)
  std::string chrome_trace_json;
};

class GraphMatcher {
 public:
  // Builds the graph database (2-hop cover, base tables, R-join index,
  // W-table, statistics) for `g`. The graph must stay alive as long as
  // the matcher (baselines and the naive engine read it directly).
  // `exec_options.num_threads` controls intra-operator parallelism of
  // the R-join engines; results are identical for every thread count.
  static Result<std::unique_ptr<GraphMatcher>> Create(
      const Graph* g, GraphDatabaseOptions db_options = {},
      ExecOptions exec_options = {});

  // Wraps an already-built database (e.g. GraphDatabase::Open). When
  // `g` is null the R-join engines (kDps/kDp/kCanonical) work fully;
  // the baselines and the naive engine need the original graph and
  // return FailedPrecondition without it.
  static Result<std::unique_ptr<GraphMatcher>> FromDatabase(
      std::unique_ptr<GraphDatabase> db, const Graph* g = nullptr,
      ExecOptions exec_options = {});

  Result<MatchResult> Match(const Pattern& pattern, MatchOptions options = {});
  Result<MatchResult> Match(std::string_view pattern_text,
                            MatchOptions options = {});

  // Answers a batch of queries (planned engines kDps/kDp/kCanonical
  // only). The batch is deduplicated by canonical form; each unique
  // pattern goes through Match's own path (plan cache, result cache,
  // execution), and every repeat or respelling is a column permutation
  // of its first spelling's rows, counted as an exact cache hit.
  // results[i] answers patterns[i] and is row-identical to a solo
  // Match(patterns[i], options).
  Result<std::vector<MatchResult>> MatchBatch(
      const std::vector<Pattern>& patterns, MatchOptions options = {},
      BatchStats* batch_stats = nullptr);
  Result<std::vector<MatchResult>> MatchBatch(
      const std::vector<std::string>& pattern_texts, MatchOptions options = {},
      BatchStats* batch_stats = nullptr);

  // Plans, explains and executes in one call (kDps/kDp/kCanonical only):
  // the optimizer's per-step estimates lined up with the actual per-step
  // rows, wall time and cost-model error of the same plan. The execution
  // runs at span granularity — `trace_level` below 1 is promoted to 1 so
  // a level-0 matcher still gets per-step timings here.
  Result<ExplainAnalyzeResult> ExplainAnalyze(const Pattern& pattern,
                                              MatchOptions options = {},
                                              int trace_level = 1);
  Result<ExplainAnalyzeResult> ExplainAnalyze(std::string_view pattern_text,
                                              MatchOptions options = {},
                                              int trace_level = 1);

  // Plans a pattern without executing (kDps/kDp/kCanonical only).
  Result<fgpm::Plan> MakePlan(const Pattern& pattern, Engine engine) const;

  GraphDatabase& db() { return *db_; }
  const GraphDatabase& db() const { return *db_; }
  const Graph& graph() const { return *graph_; }

 private:
  GraphMatcher(const Graph* g, std::unique_ptr<GraphDatabase> db,
               ExecOptions exec_options)
      : graph_(g),
        db_(std::move(db)),
        executor_(db_.get(), exec_options) {
    seen_epoch_ = db_->epoch();
  }

  // Match for the planned engines on a validated (and, if requested,
  // reduced) pattern with its canonical form: plan resolution, the
  // result-cache probe, execution on a miss and the cache insert.
  // Rows come back in `pattern`'s numbering, before RecordQuery and
  // projection.
  Result<MatchResult> MatchPlanned(const Pattern& pattern,
                                   const CanonicalForm& canon,
                                   const MatchOptions& options);

  static Result<MatchResult> Project(MatchResult result,
                                     const Pattern& pattern,
                                     const MatchOptions& options);

  // Common postlude for every successful Match: bumps the matcher-level
  // registry metrics and appends to the slow-query log when the query's
  // total elapsed time crosses ExecOptions::slow_query_ms.
  void RecordQuery(const Pattern& pattern, Engine engine,
                   const ExecStats& stats);

  // Plan resolution shared by Match and ExplainAnalyze:
  // cache lookup under the pattern's canonical key, optimize on miss,
  // insert when caching is on. Cached plans are stored in canonical
  // coordinates and translated through `canon`'s maps both ways, so
  // every spelling of a pattern shares one cache entry. `storage` must
  // outlive the returned pointer (holds the plan whenever it is not
  // served straight from the cache).
  Result<const fgpm::Plan*> ResolvePlan(const Pattern& pattern,
                                        const CanonicalForm& canon,
                                        const MatchOptions& options,
                                        fgpm::Plan* storage,
                                        double* optimize_ms);

  // Lazily constructs the result cache (ExecOptions::use_result_cache).
  ResultCache* EnsureResultCache();
  // Drops both caches when GraphDatabase::epoch() has moved since the
  // last query (ApplyEdgeInsert changed reachability + statistics).
  void CheckEpoch();
  // Answers `canon` from the result cache if possible: exact hit, or a
  // containment replay when the policy (and cost model, for kCostBased
  // against `fresh_cost`) favors it. On success fills rows in CANONICAL
  // node order and sets *cache_hit to 1 (exact) or 2 (replay).
  Result<bool> TryResultCache(const CanonicalForm& canon,
                              double fresh_cost,
                              std::vector<std::vector<NodeId>>* rows,
                              OperatorStats* op_stats, uint8_t* cache_hit);
  // Pushes result-cache counter deltas + the bytes gauge into the
  // metrics registry (no-op when obs is disabled).
  void SyncResultCacheMetrics();

  // Caches a freshly optimized plan, evicting the least recently used
  // entry when over capacity (must be > 0). Returns the cached plan
  // (stable address: unordered_map never moves mapped values on rehash
  // or other-entry erase).
  const fgpm::Plan* CachePlan(const std::string& key, fgpm::Plan plan);
  // Cache lookup; refreshes recency on hit and bumps the hit/miss
  // counters.
  const fgpm::Plan* LookupPlan(const std::string& key);

  const Graph* graph_;
  std::unique_ptr<GraphDatabase> db_;
  Executor executor_;
  std::unique_ptr<IntDpEngine> intdp_;           // lazy
  std::unique_ptr<TsdEngine> tsd_;               // lazy; DAG data only
  // Bounded LRU plan cache keyed by "<engine>|<pattern text>". The list
  // holds keys in recency order (front = most recent); entries point at
  // their list position for O(1) refresh.
  struct CachedPlan {
    fgpm::Plan plan;
    std::list<std::string>::iterator lru_pos;
  };
  std::list<std::string> plan_lru_;
  std::unordered_map<std::string, CachedPlan> plan_cache_;
  uint64_t plan_cache_hits_ = 0;
  uint64_t plan_cache_misses_ = 0;
  uint64_t plan_cache_evictions_ = 0;
  uint64_t cache_invalidations_ = 0;
  // Semantic result cache (null until the first query with
  // use_result_cache on). seen_epoch_ tracks GraphDatabase::epoch() so
  // both caches self-invalidate after ApplyEdgeInsert.
  std::unique_ptr<ResultCache> result_cache_;
  uint64_t seen_epoch_ = 0;
  // Last counter values already pushed into the metrics registry
  // (counters are monotonic; the registry gets deltas).
  struct SyncedCacheCounters {
    uint64_t hits_exact = 0, hits_containment = 0, misses = 0;
    uint64_t evictions = 0, inserts = 0;
  } synced_;
  // Ring of the most recent slow queries (kSlowLogCapacity newest kept).
  std::deque<SlowQuery> slow_queries_;

 public:
  static constexpr size_t kSlowLogCapacity = 64;
  // Most recent queries whose elapsed time (optimize + execute) crossed
  // ExecOptions::slow_query_ms, oldest first. Empty when the threshold
  // is negative (the default).
  const std::deque<SlowQuery>& slow_queries() const { return slow_queries_; }
  void ClearSlowQueries() { slow_queries_.clear(); }
  // Switch the join strategy for subsequent planning. No cache flush
  // needed: plan-cache keys include the strategy, so plans built under
  // another strategy can never be served by mistake.
  void set_join_strategy(JoinStrategy s) { executor_.set_join_strategy(s); }
  JoinStrategy join_strategy() const {
    return executor_.options().join_strategy;
  }
  // Invalidate cached plans (after ApplyEdgeInsert shifts statistics).
  void ClearPlanCache() {
    plan_cache_.clear();
    plan_lru_.clear();
  }
  // ClearPlanCache plus invalidation accounting — what the automatic
  // epoch check runs. Exposed so callers that mutate statistics outside
  // ApplyEdgeInsert can force the same path.
  void InvalidatePlanCache();
  void ClearResultCache();
  // The semantic result cache; null until the first query ran with
  // ExecOptions::use_result_cache set.
  const ResultCache* result_cache() const { return result_cache_.get(); }
  uint64_t plan_cache_evictions() const { return plan_cache_evictions_; }
  uint64_t cache_invalidations() const { return cache_invalidations_; }
  size_t plan_cache_size() const { return plan_cache_.size(); }
  // Capacity comes from ExecOptions::plan_cache_capacity (0 disables).
  size_t plan_cache_capacity() const {
    return executor_.options().plan_cache_capacity;
  }
  uint64_t plan_cache_hits() const { return plan_cache_hits_; }
  uint64_t plan_cache_misses() const { return plan_cache_misses_; }
};

}  // namespace fgpm

#endif  // FGPM_CORE_GRAPH_MATCHER_H_
