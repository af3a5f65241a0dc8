// Multi-threaded query-throughput benchmark for the de-serialized read
// path: N worker threads issue queries against one shared GraphDatabase
// (8 buffer-pool shards, 8 code-cache stripes, misses read outside the
// shard latch), so all contention lands on the shared storage
// structures — the buffer pool and the getCenters code cache. Each
// workload reports aggregate throughput at 1/2/4/8 threads; the
// committed BENCH_concurrency.json is the trajectory these cells are
// compared against.
//
// Workloads:
//  * reach — point reachability queries u ~> v answered from the
//    disk-resident graph codes (two getCenters probes + one code
//    intersection, Example 3.1). The code cache is off so every probe
//    is a real B+-tree descent through the pool, and the DiskManager
//    simulates 50 us of device latency per page read (the paper's
//    tables are disk-resident; the instantaneous in-memory store would
//    hide the miss path entirely). The database is built once, saved,
//    and reopened per configuration, so every pool starts cold; "hot"
//    sizes the pool to ~94% of the probe working set and pre-warms it,
//    "cold" gives it half the working set and no warmup. The sharded
//    pool keeps hits flowing and overlaps misses.
//  * pattern — full DPS pattern queries on a fully resident pool (no
//    simulated latency). CPU-bound: tracks scaling on multi-core hosts.
//  * cache — the reach probes with the code cache on, fully resident
//    pool, 8 threads.
//
// Results go to BENCH_concurrency.json.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/sorted_vector.h"
#include "common/timer.h"
#include "core/graph_matcher.h"
#include "exec/engine.h"
#include "graph/generators.h"

namespace fgpm {
namespace {

constexpr uint32_t kDiskLatencyUs = 50;
constexpr size_t kBigPool = size_t{64} << 20;
const char* kDbFile = "bench_concurrency.fgpm";

struct Cell {
  std::string workload;   // reach | pattern | cache
  std::string pool_mode;  // hot | cold | resident
  std::string config = "sharded";
  unsigned threads = 0;
  size_t shards = 0;
  size_t stripes = 0;
  uint32_t disk_latency_us = 0;
  uint64_t queries = 0;
  double elapsed_ms = 0;
  double qps = 0;
  double hit_rate = 0;  // buffer-pool hit rate over the window
};

Graph MakeLayeredGraph() {
  // Three-layer DAG (sources -> middles -> targets); middles become the
  // 2-hop centers, so probes and pattern queries do real W-table and
  // R-join index work.
  constexpr uint32_t kSources = 4000, kTargets = 4000, kMiddles = 400;
  Graph g;
  Rng rng(7);
  std::vector<NodeId> src, mid, tgt;
  for (uint32_t i = 0; i < kSources; ++i) src.push_back(g.AddNode("L0"));
  for (uint32_t i = 0; i < kTargets; ++i) tgt.push_back(g.AddNode("L1"));
  for (uint32_t i = 0; i < kMiddles; ++i) mid.push_back(g.AddNode("L2"));
  for (NodeId s : src) {
    for (int k = 0; k < 6; ++k) {
      Status st = g.AddEdge(s, mid[rng.NextBounded(kMiddles)]);
      (void)st;
    }
  }
  for (NodeId m : mid) {
    for (int k = 0; k < 40; ++k) {
      Status st = g.AddEdge(m, tgt[rng.NextBounded(kTargets)]);
      (void)st;
    }
  }
  g.Finalize();
  return g;
}

std::unique_ptr<GraphDatabase> OpenDb(size_t pool_bytes,
                                      size_t cache_capacity,
                                      uint32_t latency_us) {
  GraphDatabaseOptions opts;
  opts.buffer_pool_bytes = pool_bytes;
  opts.buffer_pool_shards = 8;
  opts.code_cache_stripes = 8;
  opts.code_cache_capacity = cache_capacity;
  auto db = GraphDatabase::Open(kDbFile, opts);
  FGPM_CHECK(db.ok());
  (*db)->buffer_pool()->disk()->set_simulated_read_latency_us(latency_us);
  return std::move(*db);
}

// Fixed-window throughput driver: spawns `threads` workers running
// `one_query` in a loop until the deadline, returns aggregate q/s.
template <typename Fn>
Cell RunWindow(unsigned threads, double window_ms, GraphDatabase* db,
               Fn&& one_query) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> done(threads, 0);
  std::vector<std::thread> workers;
  BufferPoolStats before = db->buffer_pool()->stats();
  WallTimer timer;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x5eed + 31 * t);
      while (!stop.load(std::memory_order_relaxed)) {
        one_query(rng);
        ++done[t];
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(window_ms)));
  stop.store(true);
  for (auto& w : workers) w.join();
  Cell c;
  c.threads = threads;
  c.elapsed_ms = timer.ElapsedMillis();
  for (uint64_t d : done) c.queries += d;
  c.qps = 1000.0 * static_cast<double>(c.queries) / c.elapsed_ms;
  BufferPoolStats after = db->buffer_pool()->stats();
  uint64_t hits = after.hits - before.hits;
  uint64_t misses = after.misses - before.misses;
  if (hits + misses > 0) {
    c.hit_rate = static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  c.shards = db->buffer_pool()->num_shards();
  c.stripes = db->code_cache_stripes();
  return c;
}

// getCenters with retry: a heavily undersized shard can transiently
// have every frame pinned by in-flight loads; frames free as soon as
// other workers finish, so a client simply tries again.
void GetCodesRetry(const GraphDatabase& db, NodeId v, LabelId l,
                   GraphCodeRecord* rec) {
  Status s;
  do {
    s = db.GetCodes(v, l, rec);
    if (s.code() == StatusCode::kResourceExhausted) std::this_thread::yield();
  } while (s.code() == StatusCode::kResourceExhausted);
  FGPM_CHECK(s.ok());
}

// One reachability query: two disk-resident getCenters probes plus the
// adaptive code intersection (Example 3.1).
void ReachQuery(const Graph& g, const GraphDatabase& db, Rng& rng) {
  NodeId u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
  NodeId v = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
  GraphCodeRecord ru, rv;
  GetCodesRetry(db, u, g.label_of(u), &ru);
  GetCodesRetry(db, v, g.label_of(v), &rv);
  volatile bool reach = SortedIntersects(ru.out, rv.in);
  (void)reach;
}

void WarmReach(const Graph& g, const GraphDatabase& db, int passes) {
  GraphCodeRecord rec;
  for (int pass = 0; pass < passes; ++pass) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      FGPM_CHECK(db.GetCodes(v, g.label_of(v), &rec).ok());
    }
  }
}

}  // namespace
}  // namespace fgpm

int main(int argc, char** argv) {
  using namespace fgpm;
  // Short mode for smoke runs: bench_concurrency --window-ms=150
  double window_ms = 1000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--window-ms=", 0) == 0) {
      window_ms = std::stod(arg.substr(12));
    }
  }

  Graph g = MakeLayeredGraph();
  const std::vector<unsigned> kThreads = {1, 2, 4, 8};
  std::vector<Cell> cells;

  // Build once, save, and reopen per pool mode below so pools start
  // cold. This matcher also serves the pattern cells.
  GraphDatabaseOptions build_opts;
  build_opts.buffer_pool_bytes = kBigPool;
  build_opts.buffer_pool_shards = 8;
  build_opts.code_cache_stripes = 8;
  build_opts.code_cache_capacity = 16384;
  auto matcher = GraphMatcher::Create(&g, build_opts);
  FGPM_CHECK(matcher.ok());
  FGPM_CHECK((*matcher)->db().Save(kDbFile).ok());

  // The reach probe working set: distinct pages a full sweep of
  // getCenters touches, counted as cold misses on a fresh open with a
  // pool big enough to never evict.
  size_t working_set = 0;
  {
    auto db = OpenDb(kBigPool, /*cache=*/0, /*latency_us=*/0);
    WarmReach(g, *db, 1);
    working_set = db->buffer_pool()->stats().misses;
  }
  const size_t kHotFrames =
      std::max<size_t>(32, working_set - working_set / 16);  // ~94% of it
  const size_t kColdFrames = std::max<size_t>(32, working_set / 2);
  std::printf(
      "# reach working set: %zu pages; hot pool %zu frames, cold pool %zu "
      "frames, disk latency %u us\n",
      working_set, kHotFrames, kColdFrames, kDiskLatencyUs);

  // --- reach: hot and cold pool ---------------------------------------
  for (const char* pool_mode : {"hot", "cold"}) {
    bool hot = std::string(pool_mode) == "hot";
    size_t frames = hot ? kHotFrames : kColdFrames;
    auto db = OpenDb(frames * kPageSize, /*cache=*/0, kDiskLatencyUs);
    if (hot) WarmReach(g, *db, 2);  // cold runs straight from the open
    for (unsigned t : kThreads) {
      Cell c = RunWindow(t, window_ms, db.get(),
                         [&](Rng& rng) { ReachQuery(g, *db, rng); });
      c.workload = "reach";
      c.pool_mode = pool_mode;
      c.disk_latency_us = kDiskLatencyUs;
      std::printf("reach   %-4s t=%u  shards=%zu  hit=%.3f  %9.0f q/s\n",
                  pool_mode, t, c.shards, c.hit_rate, c.qps);
      std::fflush(stdout);
      cells.push_back(c);
    }
  }

  // --- pattern: fully resident pool, no simulated latency -------------
  {
    GraphMatcher& m = **matcher;
    GraphDatabase& db = m.db();
    db.set_code_cache_enabled(false);
    Pattern pattern = *Pattern::Parse("L0->L2; L2->L1");
    auto plan = m.MakePlan(pattern, Engine::kDps);
    FGPM_CHECK(plan.ok());
    for (unsigned t : kThreads) {
      Cell c = RunWindow(t, window_ms, &db, [&](Rng&) {
        static thread_local Executor exec(&db, ExecOptions{.num_threads = 1});
        auto res = exec.Execute(pattern, *plan);
        FGPM_CHECK(res.ok());
        FGPM_CHECK(res->stats.result_rows > 0);
      });
      c.workload = "pattern";
      c.pool_mode = "resident";
      std::printf("pattern res  t=%u  shards=%zu  %13.1f q/s\n", t, c.shards,
                  c.qps);
      std::fflush(stdout);
      cells.push_back(c);
    }
  }

  // --- cache: reach probes with the striped code cache on -------------
  {
    auto db = OpenDb(kBigPool, /*cache=*/16384, /*latency_us=*/0);
    WarmReach(g, *db, 2);
    Cell c = RunWindow(8, window_ms, db.get(),
                       [&](Rng& rng) { ReachQuery(g, *db, rng); });
    c.workload = "cache";
    c.pool_mode = "resident";
    std::printf("cache   res  t=8  stripes=%zu  %10.0f q/s\n", c.stripes,
                c.qps);
    cells.push_back(c);
  }
  std::remove(kDbFile);

  FILE* f = std::fopen("BENCH_concurrency.json", "w");
  FGPM_CHECK(f != nullptr);
  std::fprintf(f,
               "{\n  \"bench\": \"concurrency\",\n  \"window_ms\": %.0f,\n"
               "  \"reach_working_set_pages\": %zu,\n  \"hot_frames\": %zu,\n"
               "  \"cold_frames\": %zu,\n",
               window_ms, working_set, kHotFrames, kColdFrames);
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"pool\": \"%s\", \"config\": \"%s\", "
        "\"threads\": %u, \"shards\": %zu, \"stripes\": %zu, "
        "\"disk_latency_us\": %u, \"queries\": %llu, \"elapsed_ms\": %.2f, "
        "\"hit_rate\": %.4f, \"qps\": %.1f}%s\n",
        c.workload.c_str(), c.pool_mode.c_str(), c.config.c_str(), c.threads,
        c.shards, c.stripes, c.disk_latency_us,
        static_cast<unsigned long long>(c.queries), c.elapsed_ms, c.hit_rate,
        c.qps, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_concurrency.json\n");
  return 0;
}
