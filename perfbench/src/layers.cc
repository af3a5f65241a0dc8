#include "layers.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/rng.h"
#include "exec/engine.h"
#include "opt/explain.h"
#include "query/containment.h"
#include "reach/two_hop.h"
#include "workload/patterns.h"

namespace perfbench {
namespace {

using fgpm::ExecStats;
using fgpm::StepKind;

// Every per-layer metric, with its unit. BENCHMARK.json's per_layer list
// is checked against the emitted names by run.py.
const std::vector<std::pair<const char*, Unit>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, Unit>> kMetrics = {
      {"query.parse_us", Unit::kMicros},
      {"query.canonicalize_us", Unit::kMicros},
      {"opt.plan_ms", Unit::kMillis},
      {"opt.card_qerror_p50", Unit::kRatio},
      {"exec.execute_ms", Unit::kMillis},
      {"exec.io_pages_per_query", Unit::kCount},
      {"exec.pairs_per_result_row", Unit::kRatio},
      {"exec.rows_scanned", Unit::kCount},
      {"exec.rows_materialized", Unit::kCount},
      {"exec.reach_memo_hit_ratio", Unit::kRatio},
      {"exec.kway_hit_ratio", Unit::kRatio},
      {"exec.temporal_pages", Unit::kCount},
      {"exec.step_ms.HPSJ", Unit::kMillis},
      {"exec.step_ms.SCAN", Unit::kMillis},
      {"exec.step_ms.FILTER", Unit::kMillis},
      {"exec.step_ms.FETCH", Unit::kMillis},
      {"exec.step_ms.SELECT", Unit::kMillis},
      {"exec.step_ms.BIND", Unit::kMillis},
      {"gdb.build_s", Unit::kSeconds},
      {"gdb.getcodes_us", Unit::kMicros},
      {"gdb.code_fetches", Unit::kCount},
      {"gdb.cluster_fetches", Unit::kCount},
      {"gdb.wtable_lookups", Unit::kCount},
      {"gdb.code_cache_hit_ratio", Unit::kRatio},
      {"gdb.insert_ms", Unit::kMillis},
      {"reach.build_s", Unit::kSeconds},
      {"reach.cover_per_node", Unit::kRatio},
      {"reach.probe_ns", Unit::kNanos},
      {"reach.cover_growth_per_insert", Unit::kCount},
      {"storage.pool_hit_ratio", Unit::kRatio},
      {"storage.page_reads", Unit::kCount},
      {"storage.page_writes_per_insert", Unit::kCount},
      {"graph.finalize_ms", Unit::kMillis},
      {"core.insert_p50_ms", Unit::kMillis},
      {"core.match_overhead_us", Unit::kMicros},
      {"core.result_cache_hit_ratio", Unit::kRatio},
      {"core.replay_share", Unit::kRatio},
      {"core.plan_cache_hit_ratio", Unit::kRatio},
      {"core.invalidations_per_insert", Unit::kRatio},
      {"core.result_cache_mb", Unit::kMiB},
      {"shard.match_ms", Unit::kMillis},
      {"shard.cross_share", Unit::kRatio},
      {"shard.filter_ids_per_cross", Unit::kRatio},
      {"net.served_slo_qps", Unit::kPerSecond},
      {"net.roundtrip_overhead_us", Unit::kMicros},
      {"net.queue_wait_p99_ms", Unit::kMillis},
      {"net.shed_share", Unit::kRatio},
      {"net.generator_lag_p99_ms", Unit::kMillis},
      {"common.sched_busy_frac", Unit::kRatio},
      {"common.sched_steals_per_task", Unit::kRatio},
      {"common.sched_tasks_per_query", Unit::kRatio},
      {"obs.trace_overhead_frac", Unit::kRatio},
      {"query.self_ms", Unit::kMillis},
      {"opt.self_ms", Unit::kMillis},
      {"exec.self_ms", Unit::kMillis},
      {"core.self_ms", Unit::kMillis},
      {"gdb.self_ms", Unit::kMillis},
      {"graph.self_ms", Unit::kMillis},
      {"shard.self_ms", Unit::kMillis},
      {"net.self_ms", Unit::kMillis},
  };
  return kMetrics;
}

const char* StepKindTag(StepKind k) {
  switch (k) {
    case StepKind::kHpsjBase: return "HPSJ";
    case StepKind::kScanBase: return "SCAN";
    case StepKind::kFilter: return "FILTER";
    case StepKind::kFetch: return "FETCH";
    case StepKind::kSelect: return "SELECT";
    case StepKind::kWcojBind: return "BIND";
  }
  return "OTHER";
}

std::vector<NamedPattern> Name(const std::vector<fgpm::Pattern>& ps,
                               const std::string& prefix) {
  std::vector<NamedPattern> out;
  for (size_t i = 0; i < ps.size(); ++i) {
    out.push_back({prefix + std::to_string(i + 1), ps[i].ToString(), ps[i]});
  }
  return out;
}

double QError(double est, double act) {
  est = std::max(est, 1.0);
  act = std::max(act, 1.0);
  return std::max(est, act) / std::min(est, act);
}

}  // namespace

std::vector<NamedPattern> XmarkPaperPatterns(bool with_graph_patterns) {
  std::vector<NamedPattern> all = Name(fgpm::workload::XmarkPathPatterns(), "P");
  for (auto& p : Name(fgpm::workload::XmarkTreePatterns(), "T")) {
    all.push_back(std::move(p));
  }
  if (with_graph_patterns) {
    for (auto& p : Name(fgpm::workload::XmarkGraphPatterns4(), "Q4.")) {
      all.push_back(std::move(p));
    }
    for (auto& p : Name(fgpm::workload::XmarkGraphPatterns5(), "Q5.")) {
      all.push_back(std::move(p));
    }
  }
  return all;
}

void ProbeLibraryLayers(fgpm::GraphMatcher* matcher, const fgpm::Graph& g,
                        const std::vector<NamedPattern>& pool, int reps,
                        uint64_t seed, fgpm::QueryTrace* spans, Report* r) {
  fgpm::GraphDatabase& db = matcher->db();
  fgpm::Executor executor(&db);  // default ExecOptions

  double parse_ns = 0, canon_ns = 0, plan_ns = 0, exec_ns = 0;
  uint64_t calls = 0;
  std::vector<double> overhead_us, qerrors;
  std::map<std::string, double> step_ms;
  fgpm::OperatorStats ops;
  fgpm::IoSnapshot io;
  uint64_t io_pages = 0, result_rows = 0, executions = 0;

  for (int rep = 0; rep < reps; ++rep) {
    for (const NamedPattern& np : pool) {
      ScopedSpan root(spans, "req.probe", -1);

      int64_t t0 = NowNs();
      fgpm::Result<fgpm::Pattern> parsed = [&] {
        ScopedSpan s(spans, "query.parse", root.id());
        return fgpm::Pattern::Parse(np.text);
      }();
      int64_t t1 = NowNs();
      if (!parsed.ok()) {
        r->Fail("parse " + np.name + ": " + parsed.status().ToString());
        continue;
      }
      {
        ScopedSpan s(spans, "query.canonicalize", root.id());
        fgpm::CanonicalForm canon = fgpm::Canonicalize(*parsed);
        if (canon.key.empty()) r->Invalidate("empty canonical key " + np.name);
      }
      int64_t t2 = NowNs();
      fgpm::Result<fgpm::Plan> plan = [&] {
        ScopedSpan s(spans, "opt.plan", root.id());
        return matcher->MakePlan(*parsed, fgpm::Engine::kDps);
      }();
      int64_t t3 = NowNs();
      if (!plan.ok()) {
        r->Fail("plan " + np.name + ": " + plan.status().ToString());
        continue;
      }
      fgpm::Result<fgpm::MatchResult> executed = [&] {
        ScopedSpan s(spans, "exec.execute", root.id());
        int64_t start = NowNs();
        fgpm::Result<fgpm::MatchResult> res = executor.Execute(*parsed, *plan);
        if (spans != nullptr && res.ok()) {
          // Step spans from ExecStats::step_wall_ms, laid end to end from
          // the call's start (the durations are the program's own).
          int64_t at = start;
          for (size_t i = 0; i < res->stats.step_wall_ms.size(); ++i) {
            int64_t dur = static_cast<int64_t>(res->stats.step_wall_ms[i] * 1e6);
            std::string name = std::string("exec.step.") +
                               StepKindTag(plan->steps[i].kind);
            AddSpan(spans, name, s.id(), at, at + dur);
            at += dur;
          }
        }
        return res;
      }();
      int64_t t4 = NowNs();
      if (!executed.ok()) {
        r->Fail("execute " + np.name + ": " + executed.status().ToString());
        continue;
      }
      matcher->ClearResultCache();  // Match must execute, as Execute did
      int64_t t5 = NowNs();
      fgpm::Result<fgpm::MatchResult> matched = [&] {
        ScopedSpan s(spans, "core.match", root.id());
        return matcher->Match(*parsed);
      }();
      int64_t t6 = NowNs();
      if (!matched.ok()) {
        r->Fail("match " + np.name + ": " + matched.status().ToString());
        continue;
      }
      if (matched->rows.size() != executed->rows.size()) {
        r->Fail("probe rows differ for " + np.name);
      }
      // The same plan executed again right after Match, so both calls
      // find the buffer pool equally warm; their difference is what Match
      // adds around execution.
      int64_t t7 = NowNs();
      if (!executor.Execute(*parsed, *plan).ok()) {
        r->Fail("execute " + np.name + " (again)");
        continue;
      }
      int64_t t8 = NowNs();
      parse_ns += t1 - t0;
      canon_ns += t2 - t1;
      plan_ns += t3 - t2;
      exec_ns += t4 - t3;
      ++calls;
      overhead_us.push_back(((t6 - t5) - (t8 - t7)) / 1e3);

      const ExecStats& st = executed->stats;
      for (size_t i = 0; i < st.step_wall_ms.size(); ++i) {
        step_ms[StepKindTag(plan->steps[i].kind)] += st.step_wall_ms[i];
      }
      if (rep == 0) {
        // Counters repeat exactly per execution; take one pass.
        ops.Add(st.operators);
        io.code_cache_hits += st.io.code_cache_hits;
        io.code_cache_misses += st.io.code_cache_misses;
        io_pages += st.modeled_io_pages;
        result_rows += st.result_rows;
        ++executions;
        auto expl = fgpm::ExplainPlan(*parsed, *plan, db.catalog());
        if (expl.ok()) {
          for (size_t i = 0; i < st.step_rows.size() &&
                             i < expl->steps.size(); ++i) {
            bool absorbed = i < st.step_absorbed.size() && st.step_absorbed[i];
            if (!absorbed) {
              qerrors.push_back(QError(expl->steps[i].rows_out, st.step_rows[i]));
            }
          }
        }
      }
    }
  }
  r->Add("query.parse_us", Unit::kMicros, calls ? parse_ns / calls / 1e3 : 0,
         calls);
  r->Add("query.canonicalize_us", Unit::kMicros,
         calls ? canon_ns / calls / 1e3 : 0, calls);
  r->Add("opt.plan_ms", Unit::kMillis, calls ? plan_ns / calls / 1e6 : 0, calls);
  r->Add("opt.card_qerror_p50", Unit::kRatio, Median(qerrors), qerrors.size());
  r->Add("exec.execute_ms", Unit::kMillis, calls ? exec_ns / calls / 1e6 : 0,
         calls);
  for (const char* kind : {"HPSJ", "SCAN", "FILTER", "FETCH", "SELECT", "BIND"}) {
    r->Add(std::string("exec.step_ms.") + kind, Unit::kMillis,
           calls ? step_ms[kind] / calls : 0, calls);
  }
  r->Add("core.match_overhead_us", Unit::kMicros, Median(overhead_us),
         overhead_us.size());
  const double n = static_cast<double>(executions);
  r->AddRatio("exec.io_pages_per_query", static_cast<double>(io_pages), n,
              Unit::kCount);
  r->AddRatio("exec.pairs_per_result_row",
              static_cast<double>(ops.pairs_emitted),
              static_cast<double>(result_rows));
  r->AddRatio("exec.rows_scanned", static_cast<double>(ops.rows_scanned), n,
              Unit::kCount);
  r->AddRatio("exec.rows_materialized",
              static_cast<double>(ops.rows_materialized), n, Unit::kCount);
  r->AddRatio("exec.reach_memo_hit_ratio",
              static_cast<double>(ops.reach_memo_hits),
              static_cast<double>(ops.reach_memo_probes));
  r->AddRatio("exec.kway_hit_ratio",
              static_cast<double>(ops.kway_intersect_hits),
              static_cast<double>(ops.kway_intersect_probes));
  r->AddRatio("exec.temporal_pages",
              static_cast<double>(ops.temporal_pages_read +
                                  ops.temporal_pages_written),
              n, Unit::kCount);
  r->AddRatio("gdb.code_fetches", static_cast<double>(ops.code_fetches), n,
              Unit::kCount);
  r->AddRatio("gdb.cluster_fetches", static_cast<double>(ops.cluster_fetches),
              n, Unit::kCount);
  r->AddRatio("gdb.wtable_lookups", static_cast<double>(ops.wtable_lookups), n,
              Unit::kCount);
  r->AddRatio("gdb.code_cache_hit_ratio",
              static_cast<double>(io.code_cache_hits),
              static_cast<double>(io.code_cache_hits + io.code_cache_misses));

  // GetCodes on a fixed sample of nodes.
  fgpm::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<fgpm::NodeId> nodes(4096);
  for (fgpm::NodeId& v : nodes) {
    v = static_cast<fgpm::NodeId>(rng.NextBounded(g.NumNodes()));
  }
  {
    ScopedSpan root(spans, "req.getcodes", -1);
    ScopedSpan s(spans, "gdb.getcodes", root.id());
    fgpm::GraphCodeRecord rec;
    int64_t t0 = NowNs();
    for (fgpm::NodeId v : nodes) {
      fgpm::Status st = db.GetCodes(v, g.label_of(v), &rec);
      if (!st.ok()) r->Fail("GetCodes: " + st.ToString());
    }
    double us = (NowNs() - t0) / 1e3;
    r->Add("gdb.getcodes_us", Unit::kMicros, us / nodes.size(), nodes.size());
  }

  // 2-hop reachability probes on a fixed sample of node pairs.
  const fgpm::TwoHopLabeling& lab = db.labeling();
  std::vector<std::pair<fgpm::NodeId, fgpm::NodeId>> pairs(1 << 16);
  for (auto& [u, v] : pairs) {
    u = static_cast<fgpm::NodeId>(rng.NextBounded(g.NumNodes()));
    v = static_cast<fgpm::NodeId>(rng.NextBounded(g.NumNodes()));
  }
  {
    ScopedSpan root(spans, "req.reach", -1);
    ScopedSpan s(spans, "reach.probe", root.id());
    uint64_t yes = 0;
    int64_t t0 = NowNs();
    for (const auto& [u, v] : pairs) yes += lab.Reaches(u, v) ? 1 : 0;
    double ns = static_cast<double>(NowNs() - t0);
    r->Add("reach.probe_ns", Unit::kNanos, ns / pairs.size(), pairs.size());
    r->Fact("reach.probe_positive", static_cast<double>(yes));
  }
  r->AddRatio("reach.cover_per_node", static_cast<double>(lab.CoverSize()),
              static_cast<double>(g.NumNodes()));
}

void AddStorageFacts(fgpm::GraphDatabase& db, const std::string& prefix,
                     Report* r) {
  fgpm::BufferPool* pool = db.buffer_pool();
  r->Fact(prefix + "db_pages", static_cast<double>(pool->disk()->NumPages()));
  r->Fact(prefix + "pool_frames", static_cast<double>(pool->num_frames()));
}

void StartPeakRssWindow(Report* r) {
  r->Fact("peak_rss_mb_before_timing", PeakRssMiB());
  if (!ResetPeakRss()) r->Invalidate("could not reset the peak resident set");
}

void ProbeReachBuild(const fgpm::Graph& g, Report* r) {
  int64_t t0 = NowNs();
  fgpm::TwoHopLabeling lab = fgpm::BuildTwoHopPruned(g);
  r->Add("reach.build_s", Unit::kSeconds, (NowNs() - t0) / 1e9);
  r->Fact("reach.build_cover_size", static_cast<double>(lab.CoverSize()));
}

void AddSelfTimes(const fgpm::QueryTrace& spans, Report* r) {
  std::map<std::string, double> self = SelfMsByModule(spans);
  const uint64_t requests = CountRequests(spans);
  double reqs = static_cast<double>(std::max<uint64_t>(1, requests));
  for (const char* module :
       {"query", "opt", "exec", "core", "gdb", "graph", "shard", "net"}) {
    r->Add(std::string(module) + ".self_ms", Unit::kMillis,
           self[module] / reqs, requests);
  }
  r->Fact("trace.spans", static_cast<double>(spans.spans().size()));
  r->Fact("trace.requests", reqs);
  r->Fact("trace.bench_self_ms_per_request", self["req"] / reqs);
}

void FillUnexercised(Report* r) {
  std::set<std::string> have;
  for (const Metric& m : r->metrics()) have.insert(m.name);
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (have.count(name) == 0) {
      r->Add(name, unit, 0);
      r->Annotate(name, "not exercised by this workload");
    }
  }
}

}  // namespace perfbench
