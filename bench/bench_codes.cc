// Code-layout A/B benchmark:
//
//  * probe — raw Reaches probes against one labeling under two
//    representations: the flat arena with the dispatched SIMD kernels,
//    and the hybrid arena + chunked-bitmap sidecars (hub effect). Two
//    probe mixes: leaf-heavy (uniform pairs, short codes) and hub-heavy
//    (pairs from the top code-length decile, the regime the bitmap
//    containers exist for). A deep grid DAG keeps hub codes long —
//    grid reachability is the classic worst case for 2-hop label sizes.
//  * e2e — the Figure-6 DPS pattern suite on an XMark-like graph,
//    baseline (no reachability memo, no bitmaps) vs optimized
//    (per-worker memos, default bitmap threshold); both run the
//    dispatched kernels. Row sets are checked identical; only time may
//    differ.
//
// Results go to BENCH_codes.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "reach/two_hop.h"
#include "workload/patterns.h"

namespace fgpm {
namespace {

// n x n grid DAG: (i, j) -> (i+1, j) and (i, j+1). Long 2-hop codes in
// the middle of the grid; every node is its own center.
Graph GridDag(uint32_t n) {
  Graph g;
  std::vector<NodeId> id(static_cast<size_t>(n) * n);
  const char* labels[] = {"A", "B", "C"};
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      id[i * n + j] = g.AddNode(labels[(i + j) % 3]);
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (i + 1 < n) FGPM_CHECK(g.AddEdge(id[i * n + j], id[(i + 1) * n + j]).ok());
      if (j + 1 < n) FGPM_CHECK(g.AddEdge(id[i * n + j], id[i * n + j + 1]).ok());
    }
  }
  g.Finalize();
  return g;
}

struct ProbeCell {
  std::string mix;     // leaf | hub
  std::string layout;  // flat | hybrid
  double ns_per_probe = 0;
  double speedup_vs_flat = 0;
  uint64_t reachable = 0;  // probe checksum: identical across layouts
};

// Measures one probe loop: `rounds` passes over `pairs`, best pass wins
// (steady-state cost, robust to scheduler noise on a busy host).
template <typename Fn>
std::pair<double, uint64_t> TimeProbes(
    const std::vector<std::pair<NodeId, NodeId>>& pairs, int rounds,
    Fn&& probe) {
  double best_ms = 1e300;
  uint64_t reachable = 0;
  for (int r = 0; r < rounds; ++r) {
    uint64_t count = 0;
    WallTimer t;
    for (const auto& [u, v] : pairs) count += probe(u, v) ? 1 : 0;
    best_ms = std::min(best_ms, t.ElapsedMillis());
    reachable = count;
  }
  return {best_ms * 1e6 / static_cast<double>(pairs.size()), reachable};
}

struct E2eCell {
  std::string config;  // baseline | optimized
  double total_ms = 0;
  uint64_t total_rows = 0;
  uint64_t memo_probes = 0;
  uint64_t memo_hits = 0;
};

}  // namespace
}  // namespace fgpm

int main(int argc, char** argv) {
  using namespace fgpm;
  uint32_t grid_n = 64;
  int rounds = 5;
  double xmark_factor = 0.05;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--grid=", 0) == 0) grid_n = std::stoul(arg.substr(7));
    if (arg.rfind("--rounds=", 0) == 0) rounds = std::stoi(arg.substr(9));
    if (arg.rfind("--factor=", 0) == 0) xmark_factor = std::stod(arg.substr(9));
  }

  // --- probe microbench ------------------------------------------------
  Graph g = GridDag(grid_n);
  std::printf("grid %ux%u: %zu nodes, %zu edges\n", grid_n, grid_n,
              g.NumNodes(), g.NumEdges());
  TwoHopLabeling lab = BuildTwoHopPruned(g, 1, 0);  // start flat
  const uint64_t cover = lab.CoverSize();

  // Code-length profile drives the probe mixes.
  std::vector<uint32_t> out_len(g.NumNodes()), in_len(g.NumNodes());
  std::vector<uint32_t> all_len;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    out_len[v] = static_cast<uint32_t>(lab.OutCode(v).size());
    in_len[v] = static_cast<uint32_t>(lab.InCode(v).size());
    all_len.push_back(out_len[v]);
    all_len.push_back(in_len[v]);
  }
  std::sort(all_len.begin(), all_len.end());
  const uint32_t p50 = all_len[all_len.size() / 2];
  const uint32_t p90 = all_len[all_len.size() * 9 / 10];
  const uint32_t p99 = all_len[all_len.size() * 99 / 100];
  std::printf("cover %llu entries; code length p50=%u p90=%u p99=%u max=%u\n",
              (unsigned long long)cover, p50, p90, p99, all_len.back());

  constexpr size_t kPairs = 200000;
  Rng rng(0xc0de);
  std::vector<std::pair<NodeId, NodeId>> leaf_pairs, hub_pairs;
  // Top decile by code length, per direction (the pruned center order
  // can skew entries toward one direction, so thresholds are separate).
  std::vector<uint32_t> sorted_out = out_len, sorted_in = in_len;
  std::sort(sorted_out.begin(), sorted_out.end());
  std::sort(sorted_in.begin(), sorted_in.end());
  const uint32_t p90_out = sorted_out[sorted_out.size() * 9 / 10];
  const uint32_t p90_in = sorted_in[sorted_in.size() * 9 / 10];
  std::vector<NodeId> hub_out, hub_in;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (out_len[v] >= p90_out) hub_out.push_back(v);
    if (in_len[v] >= p90_in) hub_in.push_back(v);
  }
  FGPM_CHECK(!hub_out.empty() && !hub_in.empty());
  for (size_t i = 0; i < kPairs; ++i) {
    leaf_pairs.emplace_back(
        static_cast<NodeId>(rng.NextBounded(g.NumNodes())),
        static_cast<NodeId>(rng.NextBounded(g.NumNodes())));
    hub_pairs.emplace_back(hub_out[rng.NextBounded(hub_out.size())],
                           hub_in[rng.NextBounded(hub_in.size())]);
  }

  const uint64_t flat_bytes = lab.CodeBytes();
  lab.SetBitmapThreshold(kDefaultCodeBitmapThreshold);
  const uint64_t hybrid_bytes = lab.CodeBytes();
  const uint32_t hybrid_sidecars = lab.NumBitmapCodes();
  lab.SetBitmapThreshold(0);
  std::printf("bytes/entry: flat %.2f, hybrid %.2f (%u sidecars)\n",
              double(flat_bytes) / double(cover),
              double(hybrid_bytes) / double(cover), hybrid_sidecars);

  std::vector<ProbeCell> cells;
  struct Mix {
    const char* name;
    const std::vector<std::pair<NodeId, NodeId>>* pairs;
  };
  const Mix mixes[] = {{"leaf", &leaf_pairs}, {"hub", &hub_pairs}};
  for (const Mix& mix : mixes) {
    double flat_ns = 0;
    auto add = [&](const char* layout, double ns, uint64_t reach) {
      ProbeCell c;
      c.mix = mix.name;
      c.layout = layout;
      c.ns_per_probe = ns;
      c.speedup_vs_flat = flat_ns > 0 ? flat_ns / ns : 1.0;
      c.reachable = reach;
      if (!cells.empty() && cells.back().mix == mix.name) {
        FGPM_CHECK(cells.back().reachable == reach);  // identical verdicts
      }
      std::printf("probe %-4s %-6s %8.1f ns/probe  %5.2fx\n", c.mix.c_str(),
                  layout, ns, c.speedup_vs_flat);
      std::fflush(stdout);
      cells.push_back(c);
    };

    lab.SetBitmapThreshold(0);
    auto [ns0, r0] = TimeProbes(*mix.pairs, rounds, [&](NodeId u, NodeId v) {
      return lab.Reaches(u, v);
    });
    flat_ns = ns0;
    add("flat", ns0, r0);

    lab.SetBitmapThreshold(kDefaultCodeBitmapThreshold);
    auto [ns1, r1] = TimeProbes(*mix.pairs, rounds, [&](NodeId u, NodeId v) {
      return lab.Reaches(u, v);
    });
    add("hybrid", ns1, r1);
    lab.SetBitmapThreshold(0);
  }

  auto cell_of = [&](const char* mix, const char* layout) -> const ProbeCell& {
    for (const ProbeCell& c : cells) {
      if (c.mix == mix && c.layout == layout) return c;
    }
    FGPM_CHECK(false);
    return cells[0];
  };
  const double hub_speedup = cell_of("hub", "hybrid").speedup_vs_flat;
  const double leaf_speedup = cell_of("leaf", "hybrid").speedup_vs_flat;

  // --- end-to-end: Figure-6 DPS suite, baseline vs optimized -----------
  gen::XMarkOptions xopts;
  xopts.factor = xmark_factor;
  Graph xg = gen::XMarkLike(xopts);
  std::printf("\nxmark factor %.3f: %zu nodes, %zu edges\n", xmark_factor,
              xg.NumNodes(), xg.NumEdges());
  std::vector<Pattern> patterns = workload::XmarkGraphPatterns4();
  for (const auto& p : workload::XmarkGraphPatterns5()) patterns.push_back(p);

  auto run_config = [&](const char* name, bool optimized) {
    GraphDatabaseOptions opts;
    if (!optimized) {
      opts.code_bitmap_threshold = 0;
      opts.reach_cache_entries = 0;
    }
    auto matcher = GraphMatcher::Create(&xg, opts);
    FGPM_CHECK(matcher.ok());
    E2eCell cell;
    cell.config = name;
    std::vector<std::vector<std::vector<NodeId>>> rows_per_query;
    for (const Pattern& p : patterns) {
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        auto r = (*matcher)->Match(p, {.engine = Engine::kDps});
        FGPM_CHECK(r.ok());
        best = std::min(best, r->stats.elapsed_ms);
        cell.memo_probes += r->stats.operators.reach_memo_probes;
        cell.memo_hits += r->stats.operators.reach_memo_hits;
        if (rep == 0) {
          r->SortRows();
          cell.total_rows += r->rows.size();
          rows_per_query.push_back(std::move(r->rows));
        }
      }
      cell.total_ms += best;
    }
    std::printf("e2e %-9s: %8.2f ms over %zu queries, %llu rows "
                "(memo %llu/%llu hits)\n",
                name, cell.total_ms, patterns.size(),
                (unsigned long long)cell.total_rows,
                (unsigned long long)cell.memo_hits,
                (unsigned long long)cell.memo_probes);
    return std::make_pair(cell, rows_per_query);
  };

  auto [base_cell, base_rows] = run_config("baseline", false);
  auto [opt_cell, opt_rows] = run_config("optimized", true);
  FGPM_CHECK(base_rows == opt_rows);  // identical query results
  const double e2e_speedup =
      opt_cell.total_ms > 0 ? base_cell.total_ms / opt_cell.total_ms : 0.0;
  std::printf("\nhub-probe hybrid vs flat: %.2fx; leaf: %.2fx; "
              "e2e DPS baseline/optimized: %.2fx\n",
              hub_speedup, leaf_speedup, e2e_speedup);

  FILE* f = std::fopen("BENCH_codes.json", "w");
  FGPM_CHECK(f != nullptr);
  std::fprintf(f,
               "{\n  \"bench\": \"codes\",\n  \"grid_n\": %u,\n"
               "  \"cover_entries\": %llu,\n"
               "  \"code_len_p50\": %u, \"code_len_p90\": %u, "
               "\"code_len_p99\": %u, \"code_len_max\": %u,\n"
               "  \"bytes_per_entry\": {\"flat\": %.3f, \"hybrid\": %.3f},\n"
               "  \"hybrid_sidecars\": %u,\n",
               grid_n, (unsigned long long)cover, p50, p90, p99,
               all_len.back(), double(flat_bytes) / double(cover),
               double(hybrid_bytes) / double(cover), hybrid_sidecars);
  std::fprintf(f, "  \"probe_cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const ProbeCell& c = cells[i];
    std::fprintf(f,
                 "    {\"mix\": \"%s\", \"layout\": \"%s\", "
                 "\"ns_per_probe\": %.2f, \"speedup_vs_flat\": %.3f, "
                 "\"reachable\": %llu}%s\n",
                 c.mix.c_str(), c.layout.c_str(), c.ns_per_probe,
                 c.speedup_vs_flat, (unsigned long long)c.reachable,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"e2e\": {\"workload\": \"fig6_dps_xmark\", "
               "\"xmark_factor\": %.3f, \"queries\": %zu,\n"
               "    \"baseline_ms\": %.2f, \"optimized_ms\": %.2f, "
               "\"rows\": %llu, \"identical_rows\": true,\n"
               "    \"memo_probes\": %llu, \"memo_hits\": %llu},\n",
               xmark_factor, patterns.size(), base_cell.total_ms,
               opt_cell.total_ms, (unsigned long long)opt_cell.total_rows,
               (unsigned long long)opt_cell.memo_probes,
               (unsigned long long)opt_cell.memo_hits);
  std::fprintf(f,
               "  \"speedups\": {\"hub_probe_hybrid_vs_flat\": %.3f, "
               "\"leaf_probe_hybrid_vs_flat\": %.3f, "
               "\"e2e_dps_optimized_vs_baseline\": %.3f}\n}\n",
               hub_speedup, leaf_speedup, e2e_speedup);
  std::fclose(f);
  std::printf("wrote BENCH_codes.json\n");
  return 0;
}
