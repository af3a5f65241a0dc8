// xmark-paper: the paper's own workload (Section 6). The "100M" XMark
// dataset at scale 0.1, the 28 patterns P1-P9, T1-T9, Q1-Q5 (|Vq| = 4)
// and Q1-Q5 (|Vq| = 5), run through the direct library by one client in
// a closed loop with default options (DPS, hybrid joins, factorized
// tables, one exec thread, result cache off, the paper's 1 MiB pool).
#include <memory>

#include "common/rng.h"
#include "core/graph_matcher.h"
#include "exec/naive_matcher.h"
#include "graph/generators.h"
#include "layers.h"
#include "net/wire.h"
#include "workload/datasets.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.1;
// Naive backtracking finishes the suites at this factor (~5k nodes).
constexpr double kNaiveFactor = 0.003;

struct LoopResult {
  std::vector<std::vector<double>> per_pattern_ms;
  std::vector<double> all_ms;
  uint64_t queries = 0;
  double wall_s = 0;
  fgpm::IoSnapshot io;
};

// Whole passes over the pool, each in an order drawn from `rng`, until
// `seconds` have elapsed (at least one pass).
LoopResult RunLoop(fgpm::GraphMatcher* m, const std::vector<NamedPattern>& pool,
                   const std::vector<uint64_t>& expect_rows, double seconds,
                   fgpm::Rng* rng, fgpm::QueryTrace* spans, Report* r) {
  LoopResult out;
  out.per_pattern_ms.resize(pool.size());
  std::vector<size_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  int64_t start = NowNs();
  do {
    rng->Shuffle(&order);
    for (size_t i : order) {
      ScopedSpan root(spans, "req.query", -1);
      int64_t t0 = NowNs();
      fgpm::Result<fgpm::MatchResult> res = [&] {
        ScopedSpan s(spans, "core.match", root.id());
        return m->Match(pool[i].pattern);
      }();
      double ms = MsSince(t0);
      r->CountAttempts(1);
      if (!res.ok()) {
        r->Fail(pool[i].name + ": " + res.status().ToString());
        continue;
      }
      if (res->rows.size() != expect_rows[i]) {
        r->Fail(pool[i].name + ": row count changed during the run");
      }
      out.per_pattern_ms[i].push_back(ms);
      out.all_ms.push_back(ms);
      ++out.queries;
      const fgpm::IoSnapshot& io = res->stats.io;
      out.io.page_reads += io.page_reads;
      out.io.pool_hits += io.pool_hits;
      out.io.pool_misses += io.pool_misses;
    }
  } while ((NowNs() - start) / 1e9 < seconds);
  out.wall_s = (NowNs() - start) / 1e9;
  return out;
}

// Oracle 1: every pattern's rows under DPS + hybrid (the measured
// configuration) against DP + binary R-joins on the same database.
void CheckAgainstBinaryDp(fgpm::GraphMatcher* m,
                          const std::vector<NamedPattern>& pool,
                          std::vector<uint64_t>* expect_rows, Report* r) {
  std::vector<uint64_t> sums;
  for (const NamedPattern& np : pool) {
    auto res = m->Match(np.pattern);
    r->CountAttempts(1);
    if (!res.ok()) {
      r->Fail(np.name + ": " + res.status().ToString());
      sums.push_back(0);
      expect_rows->push_back(0);
      continue;
    }
    sums.push_back(fgpm::net::RowChecksum(res->rows));
    expect_rows->push_back(res->rows.size());
  }
  m->set_join_strategy(fgpm::JoinStrategy::kBinary);
  fgpm::MatchOptions dp;
  dp.engine = fgpm::Engine::kDp;
  for (size_t i = 0; i < pool.size(); ++i) {
    auto res = m->Match(pool[i].pattern, dp);
    r->CountAttempts(1);
    if (!res.ok()) {
      r->Fail(pool[i].name + " (DP binary): " + res.status().ToString());
    } else if (res->rows.size() != (*expect_rows)[i] ||
               fgpm::net::RowChecksum(res->rows) != sums[i]) {
      r->Fail(pool[i].name + ": rows differ from DP + binary joins");
    }
  }
  m->set_join_strategy(fgpm::JoinStrategy::kHybrid);
}

// Oracle 2: the same generator at a scale the naive matcher finishes;
// every pattern's DPS rows must equal NaiveMatch's.
void CheckAgainstNaive(const std::vector<NamedPattern>& pool, uint64_t seed,
                       Report* r) {
  fgpm::gen::XMarkOptions xo;
  xo.factor = kNaiveFactor;
  xo.seed = seed;
  fgpm::Graph small = fgpm::gen::XMarkLike(xo);
  r->Fact("naive_oracle_nodes", static_cast<double>(small.NumNodes()));
  auto matcher = fgpm::GraphMatcher::Create(&small);
  if (!matcher.ok()) {
    r->Fail("naive oracle build: " + matcher.status().ToString());
    return;
  }
  uint64_t nonempty = 0;
  for (const NamedPattern& np : pool) {
    auto got = (*matcher)->Match(np.pattern);
    auto want = fgpm::NaiveMatch(small, np.pattern);
    r->CountAttempts(1);
    if (!got.ok() || !want.ok()) {
      r->Fail(np.name + " (naive oracle): match failed");
      continue;
    }
    got->SortRows();
    want->SortRows();
    if (got->rows != want->rows) {
      r->Fail(np.name + ": rows differ from NaiveMatch");
    }
    nonempty += want->rows.empty() ? 0 : 1;
  }
  r->Fact("naive_oracle_nonempty_patterns", static_cast<double>(nonempty));
}

}  // namespace

void RunXmarkPaper(const Args& a, Report* r, fgpm::QueryTrace* spans) {
  // The paper's "100M" dataset (fixed); the seed orders each pass.
  fgpm::Graph g = fgpm::workload::LoadDataset(
      fgpm::workload::PaperDatasets().back(), kScale);
  r->Fact("nodes", static_cast<double>(g.NumNodes()));
  r->Fact("edges", static_cast<double>(g.NumEdges()));
  const std::vector<NamedPattern> pool = XmarkPaperPatterns(true);

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
    auto made = fgpm::GraphMatcher::FromDatabase(std::move(db), &g);
    if (!made.ok()) {
      r->Fail("matcher: " + made.status().ToString());
      return;
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    m = std::move(*made);
  }

  AddStorageFacts(m->db(), "", r);
  std::vector<uint64_t> expect_rows;
  CheckAgainstBinaryDp(m.get(), pool, &expect_rows, r);
  CheckAgainstNaive(pool, a.seed, r);
  if (!r->correct()) return;
  fgpm::Rng rng(a.seed);
  // One untimed pass restores the measured configuration's pool state.
  RunLoop(m.get(), pool, expect_rows, 0, &rng, nullptr, r);

  if (!a.trace) {
    StartPeakRssWindow(r);
    LoopResult l = RunLoop(m.get(), pool, expect_rows, a.seconds, &rng, nullptr, r);
    r->Add("peak_rss_mb", Unit::kMiB, PeakRssMiB());
    r->Add("setup_s", Unit::kSeconds, Median(setup_s), setup_s.size());
    r->Add("queries_per_s", Unit::kPerSecond, l.queries / l.wall_s, l.queries);
    r->Add("query_p50_ms", Unit::kMillis, Quantile(l.all_ms, 0.5),
           l.all_ms.size());
    r->Add("query_p99_ms", Unit::kMillis, Quantile(l.all_ms, 0.99),
           l.all_ms.size());
    r->Add("query_geomean_ms", Unit::kMillis, GeoMeanOfMedians(l.per_pattern_ms),
           l.queries);
    return;
  }

  LoopResult plain = RunLoop(m.get(), pool, expect_rows, a.seconds / 2,
                             &rng, nullptr, r);
  LoopResult traced = RunLoop(m.get(), pool, expect_rows, a.seconds / 2,
                              &rng, spans, r);
  r->AddRatio("obs.trace_overhead_frac",
              GeoMeanOfMedians(traced.per_pattern_ms) -
                  GeoMeanOfMedians(plain.per_pattern_ms),
              GeoMeanOfMedians(plain.per_pattern_ms));
  r->AddRatio("storage.pool_hit_ratio", static_cast<double>(plain.io.pool_hits),
              static_cast<double>(plain.io.pool_hits + plain.io.pool_misses));
  r->AddRatio("storage.page_reads", static_cast<double>(plain.io.page_reads),
              static_cast<double>(plain.queries), Unit::kCount);
  r->Add("gdb.build_s", Unit::kSeconds, Median(setup_s), setup_s.size());
  r->AddRatio("core.plan_cache_hit_ratio",
              static_cast<double>(m->plan_cache_hits()),
              static_cast<double>(m->plan_cache_hits() + m->plan_cache_misses()));
  ProbeLibraryLayers(m.get(), g, pool, 1, a.seed, spans, r);
  ProbeReachBuild(g, r);
}

}  // namespace perfbench
