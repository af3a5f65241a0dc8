// Micro-benchmarks (google-benchmark): operator- and structure-level
// costs underlying the end-to-end numbers — B+-tree probes (point and
// sorted batch), graph-code retrieval (cached/uncached), W-table
// lookups, cluster fetches (point and batch), 2-hop construction,
// reachability tests and pattern parsing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "gdb/database.h"
#include "graph/generators.h"
#include "query/pattern.h"
#include "reach/two_hop.h"
#include "storage/bptree.h"

namespace fgpm {
namespace {

void BM_BPTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    DiskManager disk;
    BufferPool pool(&disk, 8 << 20);
    BPTree tree(&pool);
    Rng rng(1);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(tree.Insert(rng.Next(), i));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BPTreeInsert)->Arg(10000);

void BM_BPTreeLookup(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 8 << 20);
  BPTree tree(&pool);
  for (uint64_t k = 0; k < 100000; ++k) {
    Status s = tree.Insert(k * 7, k);
    (void)s;
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(rng.NextBounded(100000) * 7));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPTreeLookup);

// LookupSorted over a sorted batch of random keys; items are keys, so
// the per-item time compares directly with BM_BPTreeLookup.
void BM_BPTreeSortedBatch(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 8 << 20);
  BPTree tree(&pool);
  for (uint64_t k = 0; k < 100000; ++k) {
    Status s = tree.Insert(k * 7, k);
    (void)s;
  }
  Rng rng(2);
  std::vector<uint64_t> keys(static_cast<size_t>(state.range(0)));
  uint64_t sum = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (uint64_t& k : keys) k = rng.NextBounded(100000) * 7;
    std::sort(keys.begin(), keys.end());
    state.ResumeTiming();
    benchmark::DoNotOptimize(tree.LookupSorted(
        keys, [&](size_t, uint64_t v) { sum += v; }));
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BPTreeSortedBatch)->Arg(64)->Arg(4096);

void BM_TwoHopBuild(benchmark::State& state) {
  Graph g = gen::ErdosRenyi(static_cast<uint32_t>(state.range(0)),
                            state.range(0) * 3, 8, 42);
  for (auto _ : state) {
    TwoHopLabeling lab = BuildTwoHopPruned(g);
    benchmark::DoNotOptimize(lab.CoverSize());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TwoHopBuild)->Arg(1000)->Arg(10000);

void BM_TwoHopReachQuery(benchmark::State& state) {
  Graph g = gen::ErdosRenyi(20000, 60000, 8, 43);
  TwoHopLabeling lab = BuildTwoHopPruned(g);
  Rng rng(3);
  for (auto _ : state) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    benchmark::DoNotOptimize(lab.Reaches(u, v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoHopReachQuery);

struct DbEnv {
  Graph g;
  GraphDatabase db;
  DbEnv() : g(gen::XMarkLike({.factor = 0.005, .seed = 1, .acyclic = false})) {
    Status s = db.Build(g);
    (void)s;
  }
};
DbEnv& Env() {
  static DbEnv* env = new DbEnv();
  return *env;
}

void BM_GetCodesCold(benchmark::State& state) {
  DbEnv& env = Env();
  env.db.set_code_cache_enabled(false);
  Rng rng(5);
  GraphCodeRecord rec;
  for (auto _ : state) {
    NodeId v = static_cast<NodeId>(rng.NextBounded(env.g.NumNodes()));
    benchmark::DoNotOptimize(env.db.GetCodes(v, env.g.label_of(v), &rec));
  }
  env.db.set_code_cache_enabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetCodesCold);

void BM_GetCodesCached(benchmark::State& state) {
  DbEnv& env = Env();
  env.db.set_code_cache_enabled(true);
  Rng rng(6);
  GraphCodeRecord rec;
  // Narrow working set: high hit rate.
  for (auto _ : state) {
    NodeId v = static_cast<NodeId>(rng.NextBounded(256));
    benchmark::DoNotOptimize(env.db.GetCodes(v, env.g.label_of(v), &rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetCodesCached);

void BM_WTableLookup(benchmark::State& state) {
  DbEnv& env = Env();
  Rng rng(7);
  std::vector<CenterId> centers;
  uint32_t nl = env.db.num_labels();
  for (auto _ : state) {
    LabelId x = static_cast<LabelId>(rng.NextBounded(nl));
    LabelId y = static_cast<LabelId>(rng.NextBounded(nl));
    benchmark::DoNotOptimize(env.db.wtable().Lookup(x, y, &centers));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WTableLookup);

void BM_ClusterFetch(benchmark::State& state) {
  DbEnv& env = Env();
  // Probe T-subclusters of centers listed under (region -> item).
  auto rx = env.g.FindLabel("region");
  auto ry = env.g.FindLabel("item");
  std::vector<CenterId> centers;
  Status s = env.db.wtable().Lookup(*rx, *ry, &centers);
  (void)s;
  if (centers.empty()) {
    state.SkipWithError("no centers for region->item");
    return;
  }
  Rng rng(8);
  std::vector<NodeId> cluster;
  for (auto _ : state) {
    CenterId w = centers[rng.NextBounded(centers.size())];
    benchmark::DoNotOptimize(env.db.rjoin_index().GetT(w, *ry, &cluster));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterFetch);

// The same subclusters through one ReadSubclusters batch over the
// sorted center list; items are subclusters, as in BM_ClusterFetch.
void BM_ClusterFetchBatch(benchmark::State& state) {
  DbEnv& env = Env();
  auto rx = env.g.FindLabel("region");
  auto ry = env.g.FindLabel("item");
  std::vector<CenterId> centers;
  Status s = env.db.wtable().Lookup(*rx, *ry, &centers);
  (void)s;
  if (centers.empty()) {
    state.SkipWithError("no centers for region->item");
    return;
  }
  SubclusterRun run;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.db.rjoin_index().ReadSubclusters(
        centers, RJoinIndex::Side::kT, *ry, &run));
  }
  state.SetItemsProcessed(state.iterations() * centers.size());
}
BENCHMARK(BM_ClusterFetchBatch);

void BM_PatternParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Pattern::Parse("site->region; region->item; item->incategory; "
                       "incategory->category"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternParse);

}  // namespace
}  // namespace fgpm

BENCHMARK_MAIN();
