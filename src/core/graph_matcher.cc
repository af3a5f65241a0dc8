#include "core/graph_matcher.h"

#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/timer.h"

#include "exec/naive_matcher.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "opt/cost_model.h"
#include "opt/dp_optimizer.h"
#include "opt/dps_optimizer.h"
#include "opt/wcoj_planner.h"

namespace fgpm {

namespace {

struct MatcherMetrics {
  obs::Counter* queries;
  obs::Counter* slow_queries;
  obs::Counter* plan_cache_hits;
  obs::Counter* plan_cache_misses;
  obs::Counter* plan_cache_evictions;
  obs::Counter* cache_invalidations;
  obs::Counter* result_cache_hits;
  obs::Counter* result_cache_containment_hits;
  obs::Counter* result_cache_misses;
  obs::Counter* result_cache_evictions;
  obs::Counter* result_cache_inserts;
  obs::Gauge* result_cache_bytes;
  obs::Counter* batch_queries;
  obs::Counter* batch_dedup_hits;
  obs::Histogram* latency_usec;

  static const MatcherMetrics& Get() {
    static const MatcherMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      MatcherMetrics e;
      e.queries =
          r.GetCounter("fgpm_match_queries_total", "GraphMatcher::Match calls");
      e.slow_queries = r.GetCounter(
          "fgpm_slow_queries_total",
          "Queries slower than ExecOptions::slow_query_ms");
      e.plan_cache_hits =
          r.GetCounter("fgpm_plan_cache_hits_total", "Plan cache hits");
      e.plan_cache_misses =
          r.GetCounter("fgpm_plan_cache_misses_total", "Plan cache misses");
      e.plan_cache_evictions = r.GetCounter("fgpm_plan_cache_evictions_total",
                                            "Plan cache LRU evictions");
      e.cache_invalidations = r.GetCounter(
          "fgpm_cache_invalidations_total",
          "Plan + result cache invalidations (epoch moves and explicit)");
      e.result_cache_hits = r.GetCounter("fgpm_result_cache_hits_total",
                                         "Result cache exact hits");
      e.result_cache_containment_hits =
          r.GetCounter("fgpm_result_cache_containment_hits_total",
                       "Result cache containment-replay hits");
      e.result_cache_misses = r.GetCounter("fgpm_result_cache_misses_total",
                                           "Result cache misses");
      e.result_cache_evictions = r.GetCounter(
          "fgpm_result_cache_evictions_total", "Result cache LRU evictions");
      e.result_cache_inserts = r.GetCounter("fgpm_result_cache_inserts_total",
                                            "Result cache inserts");
      e.result_cache_bytes = r.GetGauge("fgpm_result_cache_bytes",
                                        "Result cache resident bytes");
      e.batch_queries = r.GetCounter("fgpm_batch_queries_total",
                                     "Queries submitted via MatchBatch");
      e.batch_dedup_hits = r.GetCounter(
          "fgpm_batch_dedup_hits_total",
          "Batch queries answered by another member's canonical duplicate");
      e.latency_usec =
          r.GetHistogram("fgpm_match_latency_usec",
                         "End-to-end match time, optimize + execute (us)");
      return e;
    }();
    return m;
  }
};

}  // namespace

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kDps:
      return "DPS";
    case Engine::kDp:
      return "DP";
    case Engine::kCanonical:
      return "CANONICAL";
    case Engine::kIntDp:
      return "INT-DP";
    case Engine::kTsd:
      return "TSD";
    case Engine::kNaive:
      return "NAIVE";
  }
  return "?";
}

Result<std::unique_ptr<GraphMatcher>> GraphMatcher::Create(
    const Graph* g, GraphDatabaseOptions db_options,
    ExecOptions exec_options) {
  if (g == nullptr || !g->finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  auto db = std::make_unique<GraphDatabase>(db_options);
  FGPM_RETURN_IF_ERROR(db->Build(*g));
  return std::unique_ptr<GraphMatcher>(
      new GraphMatcher(g, std::move(db), exec_options));
}

Result<std::unique_ptr<GraphMatcher>> GraphMatcher::FromDatabase(
    std::unique_ptr<GraphDatabase> db, const Graph* g,
    ExecOptions exec_options) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  return std::unique_ptr<GraphMatcher>(
      new GraphMatcher(g, std::move(db), exec_options));
}

Result<Plan> GraphMatcher::MakePlan(const Pattern& pattern, Engine engine) const {
  // Cost the plan for the representation it will actually run under:
  // factorized execution writes delta pairs instead of full-width rows,
  // so wide intermediates stop dominating the estimates.
  CostParams params;
  params.factorized = true;
  const JoinStrategy strategy = executor_.options().join_strategy;
  // kWcoj forces a pure bind-per-vertex plan; kHybrid hands bind-moves
  // to the cost-based searches, which mix them freely with binary
  // R-join moves (and never use them on acyclic patterns).
  if (strategy == JoinStrategy::kWcoj &&
      (engine == Engine::kDps || engine == Engine::kDp ||
       engine == Engine::kCanonical)) {
    return MakeWcojPlan(pattern, db_->catalog(), params);
  }
  switch (engine) {
    case Engine::kDps:
      return OptimizeDps(pattern, db_->catalog(), params, strategy);
    case Engine::kDp:
      return OptimizeDp(pattern, db_->catalog(), params, strategy);
    case Engine::kCanonical:
      return MakeCanonicalPlan(pattern);
    default:
      return Status::InvalidArgument(
          "planning is only meaningful for DPS/DP/CANONICAL");
  }
}

const Plan* GraphMatcher::LookupPlan(const std::string& key) {
  auto it = plan_cache_.find(key);
  if (it == plan_cache_.end()) {
    ++plan_cache_misses_;
    if (obs::Enabled()) MatcherMetrics::Get().plan_cache_misses->Increment();
    return nullptr;
  }
  ++plan_cache_hits_;
  if (obs::Enabled()) MatcherMetrics::Get().plan_cache_hits->Increment();
  plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second.lru_pos);
  return &it->second.plan;
}

const Plan* GraphMatcher::CachePlan(const std::string& key, Plan plan) {
  const size_t capacity = executor_.options().plan_cache_capacity;
  FGPM_CHECK(capacity > 0);  // callers skip the cache when disabled
  while (plan_cache_.size() >= capacity) {
    plan_cache_.erase(plan_lru_.back());
    plan_lru_.pop_back();
    ++plan_cache_evictions_;
    if (obs::Enabled()) MatcherMetrics::Get().plan_cache_evictions->Increment();
  }
  plan_lru_.push_front(key);
  auto [it, inserted] =
      plan_cache_.emplace(key, CachedPlan{std::move(plan), plan_lru_.begin()});
  FGPM_CHECK(inserted);  // callers look up before inserting
  return &it->second.plan;
}

Result<const Plan*> GraphMatcher::ResolvePlan(const Pattern& pattern,
                                              const CanonicalForm& canon,
                                              const MatchOptions& options,
                                              Plan* storage,
                                              double* optimize_ms) {
  WallTimer opt_timer;
  std::string cache_key;
  const Plan* plan = nullptr;
  if (options.use_plan_cache) {
    // The key must cover everything MakePlan's output depends on: the
    // engine and the join strategy (which changes which plan is optimal
    // for the same pattern). The pattern part is the canonical key, so
    // every spelling of a pattern (edge order, chain grouping, node
    // numbering) shares one entry.
    cache_key = std::string(EngineName(options.engine)) + "|" +
                JoinStrategyName(executor_.options().join_strategy) + "|" +
                canon.key;
    const Plan* cached = LookupPlan(cache_key);
    if (cached != nullptr) {
      // Cached plans live in canonical coordinates; translate node ids
      // and edge indexes into the caller's numbering.
      *storage =
          RemapPlan(*cached, canon.InverseNodeMap(), canon.InverseEdgeMap());
      plan = storage;
    }
  }
  if (plan == nullptr) {
    FGPM_ASSIGN_OR_RETURN(*storage, MakePlan(pattern, options.engine));
    if (options.use_plan_cache && plan_cache_capacity() > 0) {
      CachePlan(cache_key,
                RemapPlan(*storage, canon.node_map, canon.edge_map));
    }
    plan = storage;
  }
  *optimize_ms = opt_timer.ElapsedMillis();
  return plan;
}

void GraphMatcher::InvalidatePlanCache() {
  ClearPlanCache();
  ++cache_invalidations_;
  if (obs::Enabled()) MatcherMetrics::Get().cache_invalidations->Increment();
}

void GraphMatcher::ClearResultCache() {
  if (result_cache_ == nullptr) return;
  result_cache_->Clear();
  SyncResultCacheMetrics();
}

ResultCache* GraphMatcher::EnsureResultCache() {
  if (result_cache_ == nullptr) {
    result_cache_ = std::make_unique<ResultCache>(
        executor_.options().result_cache_mb << 20);
  }
  return result_cache_.get();
}

void GraphMatcher::CheckEpoch() {
  const uint64_t now = db_->epoch();
  if (now == seen_epoch_) return;
  // ApplyEdgeInsert changed reachability and statistics: cached plans
  // are stale estimates, cached rows are stale answers.
  seen_epoch_ = now;
  InvalidatePlanCache();
  ClearResultCache();
}

void GraphMatcher::SyncResultCacheMetrics() {
  if (!obs::Enabled() || result_cache_ == nullptr) return;
  const MatcherMetrics& m = MatcherMetrics::Get();
  auto delta = [](uint64_t now, uint64_t* prev) {
    const uint64_t d = now - *prev;
    *prev = now;
    return d;
  };
  m.result_cache_hits->Increment(
      delta(result_cache_->hits_exact(), &synced_.hits_exact));
  m.result_cache_containment_hits->Increment(
      delta(result_cache_->hits_containment(), &synced_.hits_containment));
  m.result_cache_misses->Increment(
      delta(result_cache_->misses(), &synced_.misses));
  m.result_cache_evictions->Increment(
      delta(result_cache_->evictions(), &synced_.evictions));
  m.result_cache_inserts->Increment(
      delta(result_cache_->inserts(), &synced_.inserts));
  m.result_cache_bytes->Set(static_cast<double>(result_cache_->bytes()));
}

Result<bool> GraphMatcher::TryResultCache(
    const CanonicalForm& canon, double fresh_cost,
    std::vector<std::vector<NodeId>>* rows, OperatorStats* op_stats,
    uint8_t* cache_hit) {
  ResultCache* cache = result_cache_.get();
  if (cache == nullptr) return false;
  if (const ResultCache::Entry* e = cache->LookupExact(canon.key)) {
    rows->reserve(e->num_rows);
    for (size_t r = 0; r < e->num_rows; ++r) {
      rows->emplace_back(e->rows.begin() + r * e->arity,
                         e->rows.begin() + (r + 1) * e->arity);
    }
    *cache_hit = 1;
    obs::RecordFlight(obs::FlightEvent::kCacheHit, e->num_rows);
    SyncResultCacheMetrics();
    return true;
  }
  const ResultCachePolicy policy = executor_.options().result_cache_policy;
  if (policy != ResultCachePolicy::kNever) {
    if (auto hit = cache->FindContaining(canon.pattern)) {
      std::vector<LabelId> node_labels;
      const bool resolvable =
          ResolveNodeLabels(*db_, canon.pattern, &node_labels);
      CostModel model(&db_->catalog());
      const double replay_cost = model.ReplayCost(
          static_cast<double>(hit->entry->num_rows),
          static_cast<int>(canon.pattern.num_nodes()),
          static_cast<int>(hit->mapping.residual.size()));
      // An unresolvable label means the fresh result is empty by
      // definition; replaying cached rows for it would be wrong only if
      // the entry had rows — impossible (same label set) — but skip the
      // probes anyway and let the fresh path answer.
      if (resolvable && (policy == ResultCachePolicy::kAlways ||
                         replay_cost < fresh_cost)) {
        FGPM_RETURN_IF_ERROR(ReplayContainment(
            *db_, canon.pattern, node_labels, *hit->entry, hit->mapping,
            executor_.pool(), rows, op_stats));
        *cache_hit = 2;
        cache->RecordContainmentHit();
        // Promote: the replayed rows ARE this pattern's full result, so
        // the next repeat of any of its spellings exact-hits.
        cache->Insert(canon.key, canon.pattern, *rows);
        SyncResultCacheMetrics();
        return true;
      }
    }
  }
  cache->RecordMiss();
  obs::RecordFlight(obs::FlightEvent::kCacheMiss);
  SyncResultCacheMetrics();
  return false;
}

void GraphMatcher::RecordQuery(const Pattern& pattern, Engine engine,
                               const ExecStats& stats) {
  if (obs::Enabled()) {
    const MatcherMetrics& m = MatcherMetrics::Get();
    m.queries->Increment();
    m.latency_usec->Observe(static_cast<uint64_t>(stats.elapsed_ms * 1e3));
  }
  // The slow-query log is a diagnostic feature gated only on the
  // slow_query_ms threshold — it works even with obs disabled or
  // compiled out; only the registry counter depends on obs.
  const double threshold = executor_.options().slow_query_ms;
  if (threshold >= 0 && stats.elapsed_ms >= threshold) {
    if (obs::Enabled()) {
      MatcherMetrics::Get().slow_queries->Increment();
    }
    obs::RecordFlight(obs::FlightEvent::kSlowQuery,
                      static_cast<uint64_t>(stats.elapsed_ms * 1e3));
    if (slow_queries_.size() >= kSlowLogCapacity) {
      slow_queries_.pop_front();
    }
    slow_queries_.push_back({pattern.ToString(), engine, stats.elapsed_ms,
                             stats.optimize_ms, stats.result_rows});
  }
}

Result<MatchResult> GraphMatcher::MatchPlanned(const Pattern& pattern,
                                               const CanonicalForm& canon,
                                               const MatchOptions& options) {
  CheckEpoch();
  WallTimer total;
  const bool use_cache = executor_.options().use_result_cache;
  if (use_cache) EnsureResultCache();
  fgpm::Plan storage;
  double optimize_ms = 0;
  FGPM_ASSIGN_OR_RETURN(
      const fgpm::Plan* plan,
      ResolvePlan(pattern, canon, options, &storage, &optimize_ms));
  if (use_cache) {
    MatchResult result;
    std::vector<std::vector<NodeId>> canon_rows;
    uint8_t cache_hit = 0;
    FGPM_ASSIGN_OR_RETURN(
        bool served,
        TryResultCache(canon, plan->estimated_cost, &canon_rows,
                       &result.stats.operators, &cache_hit));
    if (served) {
      // Cached rows are in canonical node order; permute into this
      // spelling's numbering (node i lives in canonical column
      // node_map[i]).
      for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
        result.column_labels.push_back(pattern.label(i));
      }
      result.rows.reserve(canon_rows.size());
      for (const auto& crow : canon_rows) {
        std::vector<NodeId> row(crow.size());
        for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
          row[i] = crow[canon.node_map[i]];
        }
        result.rows.push_back(std::move(row));
      }
      result.stats.cache_hit = cache_hit;
      result.stats.result_rows = result.rows.size();
      result.stats.optimize_ms = optimize_ms;
      result.stats.elapsed_ms = total.ElapsedMillis();
      return result;
    }
  }
  FGPM_ASSIGN_OR_RETURN(MatchResult result, executor_.Execute(pattern, *plan));
  // Like the paper, reported elapsed time covers optimization AND
  // processing.
  result.stats.optimize_ms = optimize_ms;
  result.stats.elapsed_ms += optimize_ms;
  if (use_cache) {
    std::vector<std::vector<NodeId>> canon_rows;
    canon_rows.reserve(result.rows.size());
    for (const auto& row : result.rows) {
      std::vector<NodeId> crow(row.size());
      for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
        crow[canon.node_map[i]] = row[i];
      }
      canon_rows.push_back(std::move(crow));
    }
    result_cache_->Insert(canon.key, canon.pattern, canon_rows);
    SyncResultCacheMetrics();
  }
  return result;
}

Result<MatchResult> GraphMatcher::Match(const Pattern& pattern,
                                        MatchOptions options) {
  FGPM_RETURN_IF_ERROR(pattern.Validate());
  const Pattern* effective = &pattern;
  Pattern reduced;
  if (options.transitive_reduction) {
    reduced = pattern.TransitiveReduction();
    effective = &reduced;
  }

  // Shared postlude: metrics + slow-query log, then projection.
  auto finish = [&](MatchResult result) {
    RecordQuery(*effective, options.engine, result.stats);
    return Project(std::move(result), *effective, options);
  };

  switch (options.engine) {
    case Engine::kDps:
    case Engine::kDp:
    case Engine::kCanonical: {
      FGPM_ASSIGN_OR_RETURN(
          MatchResult result,
          MatchPlanned(*effective, Canonicalize(*effective), options));
      return finish(std::move(result));
    }
    case Engine::kIntDp: {
      if (graph_ == nullptr) {
        return Status::FailedPrecondition(
            "INT-DP needs the original graph (matcher opened from a saved "
            "database only)");
      }
      if (!intdp_) {
        intdp_ = std::make_unique<IntDpEngine>(graph_, &db_->catalog());
      }
      FGPM_ASSIGN_OR_RETURN(MatchResult result, intdp_->Match(*effective));
      return finish(std::move(result));
    }
    case Engine::kTsd: {
      if (graph_ == nullptr) {
        return Status::FailedPrecondition(
            "TSD needs the original graph (matcher opened from a saved "
            "database only)");
      }
      if (!tsd_) {
        FGPM_ASSIGN_OR_RETURN(tsd_, TsdEngine::Create(graph_));
      }
      FGPM_ASSIGN_OR_RETURN(MatchResult result, tsd_->Match(*effective));
      return finish(std::move(result));
    }
    case Engine::kNaive: {
      if (graph_ == nullptr) {
        return Status::FailedPrecondition(
            "the naive engine needs the original graph");
      }
      FGPM_ASSIGN_OR_RETURN(MatchResult result,
                            NaiveMatch(*graph_, *effective));
      return finish(std::move(result));
    }
  }
  return Status::InvalidArgument("unknown engine");
}

Result<ExplainAnalyzeResult> GraphMatcher::ExplainAnalyze(
    const Pattern& pattern, MatchOptions options, int trace_level) {
  FGPM_RETURN_IF_ERROR(pattern.Validate());
  if (options.engine != Engine::kDps && options.engine != Engine::kDp &&
      options.engine != Engine::kCanonical) {
    return Status::InvalidArgument(
        "EXPLAIN ANALYZE needs a planned engine (DPS/DP/CANONICAL)");
  }
  const Pattern* effective = &pattern;
  Pattern reduced;
  if (options.transitive_reduction) {
    reduced = pattern.TransitiveReduction();
    effective = &reduced;
  }

  CheckEpoch();
  fgpm::Plan storage;
  double optimize_ms = 0;
  const CanonicalForm canon = Canonicalize(*effective);
  FGPM_ASSIGN_OR_RETURN(
      const fgpm::Plan* plan,
      ResolvePlan(*effective, canon, options, &storage, &optimize_ms));

  // Explain with the exact CostParams the optimizer planned under, so
  // est-vs-actual deltas expose model error, not a configuration skew.
  CostParams params;
  params.factorized = true;
  ExplainAnalyzeResult out;
  FGPM_ASSIGN_OR_RETURN(
      out.explanation,
      ExplainPlan(*effective, *plan, db_->catalog(), params));

  FGPM_ASSIGN_OR_RETURN(
      out.result,
      executor_.Execute(*effective, *plan, std::max(1, trace_level)));
  out.result.stats.optimize_ms = optimize_ms;
  out.result.stats.elapsed_ms += optimize_ms;
  RecordQuery(*effective, options.engine, out.result.stats);

  out.report = out.explanation.ToStringWithActuals(out.result.stats);
  if (out.result.stats.trace) {
    out.chrome_trace_json = out.result.stats.trace->ToChromeJson();
  }
  FGPM_ASSIGN_OR_RETURN(out.result,
                        Project(std::move(out.result), *effective, options));
  return out;
}

Result<ExplainAnalyzeResult> GraphMatcher::ExplainAnalyze(
    std::string_view pattern_text, MatchOptions options, int trace_level) {
  FGPM_ASSIGN_OR_RETURN(Pattern p, Pattern::Parse(pattern_text));
  return ExplainAnalyze(p, options, trace_level);
}

Result<MatchResult> GraphMatcher::Project(MatchResult result,
                                          const Pattern& pattern,
                                          const MatchOptions& options) {
  if (options.projection.empty()) return result;
  std::vector<size_t> cols;
  for (const std::string& name : options.projection) {
    bool found = false;
    for (size_t c = 0; c < result.column_labels.size(); ++c) {
      if (result.column_labels[c] == name) {
        cols.push_back(c);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("projection label '" + name +
                                     "' is not a pattern label");
    }
  }
  (void)pattern;
  MatchResult projected;
  projected.stats = result.stats;
  for (size_t c : cols) projected.column_labels.push_back(result.column_labels[c]);
  std::unordered_set<std::vector<NodeId>, RowHash> seen;
  for (const auto& row : result.rows) {
    std::vector<NodeId> out(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) out[i] = row[cols[i]];
    if (seen.insert(out).second) projected.rows.push_back(std::move(out));
  }
  projected.stats.result_rows = projected.rows.size();
  return projected;
}

Result<MatchResult> GraphMatcher::Match(std::string_view pattern_text,
                                        MatchOptions options) {
  FGPM_ASSIGN_OR_RETURN(Pattern p, Pattern::Parse(pattern_text));
  return Match(p, options);
}

Result<std::vector<MatchResult>> GraphMatcher::MatchBatch(
    const std::vector<Pattern>& patterns, MatchOptions options,
    BatchStats* batch_stats) {
  if (options.engine != Engine::kDps && options.engine != Engine::kDp &&
      options.engine != Engine::kCanonical) {
    return Status::InvalidArgument(
        "MatchBatch needs a planned engine (DPS/DP/CANONICAL)");
  }
  for (const Pattern& p : patterns) FGPM_RETURN_IF_ERROR(p.Validate());

  // The first spelling of each canonical key runs through MatchPlanned;
  // every later spelling (or outright repeat) reads that answer through
  // the canonical numbering: its node n is canonical column
  // node_map[n], which the first spelling binds at first_node[...].
  struct First {
    size_t index;
    std::vector<PatternNodeId> first_node;  // canonical -> first spelling
  };
  std::unordered_map<std::string, First> first_of;
  std::vector<MatchResult> results(patterns.size());
  uint64_t cache_exact = 0, cache_replay = 0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Pattern* effective = &patterns[i];
    Pattern reduced;
    if (options.transitive_reduction) {
      reduced = patterns[i].TransitiveReduction();
      effective = &reduced;
    }
    const CanonicalForm canon = Canonicalize(*effective);
    auto it = first_of.find(canon.key);
    if (it == first_of.end()) {
      FGPM_ASSIGN_OR_RETURN(results[i],
                            MatchPlanned(*effective, canon, options));
      first_of.emplace(canon.key, First{i, canon.InverseNodeMap()});
    } else {
      const MatchResult& first = results[it->second.index];
      MatchResult& res = results[i];
      res.stats = first.stats;
      res.stats.cache_hit = 1;
      for (PatternNodeId n = 0; n < effective->num_nodes(); ++n) {
        res.column_labels.push_back(effective->label(n));
      }
      res.rows.reserve(first.rows.size());
      for (const auto& frow : first.rows) {
        std::vector<NodeId> row(frow.size());
        for (PatternNodeId n = 0; n < effective->num_nodes(); ++n) {
          row[n] = frow[it->second.first_node[canon.node_map[n]]];
        }
        res.rows.push_back(std::move(row));
      }
    }
    if (results[i].stats.cache_hit == 1) ++cache_exact;
    if (results[i].stats.cache_hit == 2) ++cache_replay;
    RecordQuery(*effective, options.engine, results[i].stats);
  }
  // Project only once every repeat has read its first spelling's rows.
  for (size_t i = 0; i < patterns.size(); ++i) {
    FGPM_ASSIGN_OR_RETURN(
        results[i], Project(std::move(results[i]), patterns[i], options));
  }

  if (batch_stats != nullptr) {
    batch_stats->queries = patterns.size();
    batch_stats->unique_queries = first_of.size();
    batch_stats->cache_exact = cache_exact;
    batch_stats->cache_replay = cache_replay;
  }
  if (obs::Enabled()) {
    const MatcherMetrics& m = MatcherMetrics::Get();
    m.batch_queries->Increment(patterns.size());
    m.batch_dedup_hits->Increment(patterns.size() - first_of.size());
  }
  return results;
}

Result<std::vector<MatchResult>> GraphMatcher::MatchBatch(
    const std::vector<std::string>& pattern_texts, MatchOptions options,
    BatchStats* batch_stats) {
  std::vector<Pattern> patterns;
  patterns.reserve(pattern_texts.size());
  for (const std::string& text : pattern_texts) {
    FGPM_ASSIGN_OR_RETURN(Pattern p, Pattern::Parse(text));
    patterns.push_back(std::move(p));
  }
  return MatchBatch(patterns, options, batch_stats);
}

}  // namespace fgpm
