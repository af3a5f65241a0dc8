// update-mix: writes beside reads on the direct library path (its traced
// run also carries the serving-layer probes, see layers.h). The "20M"
// XMark dataset at scale 0.1 (acyclic), one client in a closed loop with
// the result cache on: Zipf(0.9) over the P and T patterns, and every
// 20th operation one edge insert (AddEdge + Graph::Finalize +
// GraphDatabase::ApplyEdgeInsert) from a lower to a higher node id, so
// the graph stays a DAG and every insert applies. Each insert bumps the
// database epoch, which flushes the matcher's plan and result caches.
#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "core/graph_matcher.h"
#include "layers.h"
#include "workload/datasets.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.1;
constexpr int kInsertEvery = 20;
constexpr double kZipfTheta = 0.9;
// The inserted edges are part of the fixed dataset: one stream for every
// seed, so runs differ in their query sequence, not in how far the graph
// drifts from the paper's.
constexpr uint64_t kEdgeSeed = 99;
// The resident set grows with the operations done, and a run does as many
// as fit in its seconds, so peak_rss_mb is read once this many are done
// (300 inserts): the same work on every commit. A 30 s run does about
// 12,000 operations on a 4-vCPU VM.
constexpr uint64_t kRssOps = 6000;

struct MixResult {
  std::vector<std::vector<double>> per_pattern_ms;
  std::vector<double> query_ms, finalize_ms, apply_ms, insert_ms;
  uint64_t ops = 0, queries = 0, inserts = 0;
  double wall_s = 0;
  uint64_t cover_growth = 0, page_writes = 0, invalidations = 0;
  fgpm::IoSnapshot io;
  double peak_rss_mb = 0;  // after kRssOps operations, or at the end
  uint64_t peak_rss_ops = 0;
};

class Mix {
 public:
  Mix(fgpm::Graph* g, fgpm::GraphMatcher* m,
      const std::vector<NamedPattern>* pool, uint64_t seed)
      : g_(g), m_(m), pool_(pool), rng_(seed * 0x2545f4914f6cdd1dull + 7),
        edge_rng_(kEdgeSeed),
        zipf_(pool->size(), kZipfTheta) {}

  MixResult Run(double seconds, fgpm::QueryTrace* spans, Report* r) {
    MixResult out;
    out.per_pattern_ms.resize(pool_->size());
    uint64_t inval0 = m_->cache_invalidations();
    int64_t start = NowNs();
    while ((NowNs() - start) / 1e9 < seconds) {
      if (++op_ % kInsertEvery == 0) {
        Insert(spans, r, &out);
      } else {
        Query(spans, r, &out);
      }
      if (++out.ops == kRssOps) out.peak_rss_mb = PeakRssMiB();
    }
    out.wall_s = (NowNs() - start) / 1e9;
    out.peak_rss_ops = std::min(out.ops, kRssOps);
    if (out.ops < kRssOps) out.peak_rss_mb = PeakRssMiB();
    out.invalidations = m_->cache_invalidations() - inval0;
    return out;
  }

 private:
  void Query(fgpm::QueryTrace* spans, Report* r, MixResult* out) {
    size_t i = zipf_.Sample(&rng_);
    ScopedSpan root(spans, "req.query", -1);
    int64_t t0 = NowNs();
    fgpm::Result<fgpm::MatchResult> res = [&] {
      ScopedSpan s(spans, "core.match", root.id());
      return m_->Match((*pool_)[i].pattern);
    }();
    double ms = MsSince(t0);
    r->CountAttempts(1);
    if (!res.ok()) {
      r->Fail((*pool_)[i].name + ": " + res.status().ToString());
      return;
    }
    out->per_pattern_ms[i].push_back(ms);
    out->query_ms.push_back(ms);
    ++out->queries;
    out->io.page_reads += res->stats.io.page_reads;
    out->io.pool_hits += res->stats.io.pool_hits;
    out->io.pool_misses += res->stats.io.pool_misses;
  }

  void Insert(fgpm::QueryTrace* spans, Report* r, MixResult* out) {
    const uint64_t n = g_->NumNodes();
    fgpm::NodeId u = 0, v = 0;
    do {
      u = static_cast<fgpm::NodeId>(edge_rng_.NextBounded(n));
      v = static_cast<fgpm::NodeId>(edge_rng_.NextBounded(n));
      if (u > v) std::swap(u, v);
    } while (u == v || HasEdge(u, v));
    fgpm::GraphDatabase& db = m_->db();
    uint64_t cover0 = db.labeling().CoverSize();
    uint64_t writes0 = db.Io().page_writes;
    ScopedSpan root(spans, "req.insert", -1);
    r->CountAttempts(1);
    int64_t t0 = NowNs();
    fgpm::Status st = g_->AddEdge(u, v);
    {
      ScopedSpan s(spans, "graph.finalize", root.id());
      g_->Finalize();
    }
    int64_t t1 = NowNs();
    if (st.ok()) {
      ScopedSpan s(spans, "gdb.apply_insert", root.id());
      st = db.ApplyEdgeInsert(*g_, u, v);
    }
    int64_t t2 = NowNs();
    if (!st.ok()) {
      r->Fail("insert: " + st.ToString());
      return;
    }
    out->finalize_ms.push_back((t1 - t0) / 1e6);
    out->apply_ms.push_back((t2 - t1) / 1e6);
    out->insert_ms.push_back((t2 - t0) / 1e6);
    out->cover_growth += db.labeling().CoverSize() - cover0;
    out->page_writes += db.Io().page_writes - writes0;
    ++out->inserts;
  }

  bool HasEdge(fgpm::NodeId u, fgpm::NodeId v) const {
    for (fgpm::NodeId w : g_->OutNeighbors(u)) {
      if (w == v) return true;
    }
    return false;
  }

  fgpm::Graph* g_;
  fgpm::GraphMatcher* m_;
  const std::vector<NamedPattern>* pool_;
  fgpm::Rng rng_;
  fgpm::Rng edge_rng_;
  fgpm::ZipfDistribution zipf_;
  uint64_t op_ = 0;
};

// After the run: every pattern's rows from the updated database must
// equal those from a database rebuilt from scratch on the final graph.
void CheckAgainstRebuild(const fgpm::Graph& g, fgpm::GraphMatcher* live,
                         const std::vector<NamedPattern>& pool, Report* r) {
  auto fresh = fgpm::GraphMatcher::Create(&g);
  if (!fresh.ok()) {
    r->Fail("rebuild: " + fresh.status().ToString());
    return;
  }
  for (const NamedPattern& np : pool) {
    auto got = live->Match(np.pattern);
    auto want = (*fresh)->Match(np.pattern);
    r->CountAttempts(1);
    if (!got.ok() || !want.ok()) {
      r->Fail(np.name + " (rebuild oracle): match failed");
      continue;
    }
    got->SortRows();
    want->SortRows();
    if (got->rows != want->rows) {
      r->Fail(np.name + ": rows differ from a rebuilt database");
    }
  }
}

}  // namespace

void RunUpdateMix(const Args& a, Report* r, fgpm::QueryTrace* spans) {
  // The paper's "20M" dataset (fixed, acyclic); the seed draws the
  // query sequence.
  fgpm::Graph g = fgpm::workload::LoadDataset(
      fgpm::workload::PaperDatasets().front(), kScale, /*acyclic=*/true);
  r->Fact("nodes", static_cast<double>(g.NumNodes()));
  r->Fact("edges", static_cast<double>(g.NumEdges()));
  const std::vector<NamedPattern> pool = XmarkPaperPatterns(false);

  fgpm::ExecOptions exec;
  exec.use_result_cache = true;
  std::unique_ptr<fgpm::GraphMatcher> m;
  std::vector<double> setup_s;
  while (MoreSetupReps(setup_s)) {
    m.reset();
    int64_t t0 = NowNs();
    auto db = std::make_unique<fgpm::GraphDatabase>();
    fgpm::Status st = db->Build(g);
    if (!st.ok()) {
      r->Fail("database build: " + st.ToString());
      return;
    }
    auto made = fgpm::GraphMatcher::FromDatabase(std::move(db), &g, exec);
    if (!made.ok()) {
      r->Fail("matcher: " + made.status().ToString());
      return;
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    m = std::move(*made);
  }
  AddStorageFacts(m->db(), "", r);
  // Untimed warm pass: plans and results of every pattern cached.
  for (const NamedPattern& np : pool) {
    auto res = m->Match(np.pattern);
    r->CountAttempts(1);
    if (!res.ok()) r->Fail(np.name + ": " + res.status().ToString());
  }
  if (!r->correct()) return;

  Mix mix(&g, m.get(), &pool, a.seed);
  if (!a.trace) {
    StartPeakRssWindow(r);
    MixResult x = mix.Run(a.seconds, nullptr, r);
    r->Add("peak_rss_mb", Unit::kMiB, x.peak_rss_mb, x.peak_rss_ops);
    CheckAgainstRebuild(g, m.get(), pool, r);
    r->Add("setup_s", Unit::kSeconds, Median(setup_s), setup_s.size());
    r->Add("queries_per_s", Unit::kPerSecond, x.ops / x.wall_s, x.ops);
    r->Add("query_p50_ms", Unit::kMillis, Quantile(x.query_ms, 0.5),
           x.query_ms.size());
    r->Add("query_p99_ms", Unit::kMillis, Quantile(x.query_ms, 0.99),
           x.query_ms.size());
    r->Add("query_geomean_ms", Unit::kMillis, GeoMeanOfMedians(x.per_pattern_ms), x.queries);
    r->Fact("inserts", static_cast<double>(x.inserts));
    r->Fact("insert_p50_ms", Quantile(x.insert_ms, 0.5));
    return;
  }

  MixResult plain = mix.Run(a.seconds / 2, nullptr, r);
  MixResult traced = mix.Run(a.seconds / 2, spans, r);
  CheckAgainstRebuild(g, m.get(), pool, r);
  const double per_op_plain = plain.wall_s / plain.ops;
  const double per_op_traced = traced.wall_s / traced.ops;
  r->AddRatio("obs.trace_overhead_frac", per_op_traced - per_op_plain,
              per_op_plain);
  r->Add("graph.finalize_ms", Unit::kMillis, Quantile(plain.finalize_ms, 0.5),
         plain.finalize_ms.size());
  r->Add("gdb.insert_ms", Unit::kMillis, Quantile(plain.apply_ms, 0.5),
         plain.apply_ms.size());
  r->Add("core.insert_p50_ms", Unit::kMillis, Quantile(plain.insert_ms, 0.5),
         plain.insert_ms.size());
  const double ins = static_cast<double>(plain.inserts);
  r->AddRatio("reach.cover_growth_per_insert",
              static_cast<double>(plain.cover_growth), ins, Unit::kCount);
  r->AddRatio("storage.page_writes_per_insert",
              static_cast<double>(plain.page_writes), ins, Unit::kCount);
  r->AddRatio("core.invalidations_per_insert",
              static_cast<double>(plain.invalidations), ins);
  r->AddRatio("storage.pool_hit_ratio", static_cast<double>(plain.io.pool_hits),
              static_cast<double>(plain.io.pool_hits + plain.io.pool_misses));
  r->AddRatio("storage.page_reads", static_cast<double>(plain.io.page_reads),
              static_cast<double>(plain.queries), Unit::kCount);
  const fgpm::ResultCache* rc = m->result_cache();
  const double hits = rc ? rc->hits_exact() + rc->hits_containment() : 0;
  const double lookups = rc ? hits + rc->misses() : 0;
  r->AddRatio("core.result_cache_hit_ratio", hits, lookups);
  r->AddRatio("core.replay_share", rc ? rc->hits_containment() : 0, lookups);
  r->Add("core.result_cache_mb", Unit::kMiB,
         rc ? rc->bytes() / (1024.0 * 1024.0) : 0);
  r->AddRatio("core.plan_cache_hit_ratio",
              static_cast<double>(m->plan_cache_hits()),
              static_cast<double>(m->plan_cache_hits() + m->plan_cache_misses()));
  r->Add("gdb.build_s", Unit::kSeconds, Median(setup_s), setup_s.size());
  ProbeLibraryLayers(m.get(), g, pool, 2, a.seed, spans, r);
  ProbeReachBuild(g, r);
  ProbeServing(a.seed, a.seconds, spans, r);
}

}  // namespace perfbench
