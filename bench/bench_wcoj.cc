// Binary R-joins vs WCOJ vs hybrid join strategies on cyclic patterns
// (PR 6 tentpole): triangle, 4-clique, 5-cycle and diamond pattern
// graphs over a scale-free (DAG: preferential attachment points new ->
// old) and an Erdos-Renyi graph (cyclic: directed-cycle patterns only
// match inside SCCs, which is exactly where late select pruning hurts
// binary plans and per-bind k-way intersection pays off).
//
// For each (graph, pattern, threads in {1,4,8}) cell the same pattern
// runs under three plans over ONE shared database build:
//   binary — OptimizeDps with bind-moves disabled (the pre-PR planner);
//   wcoj   — the pure scan+bind plan from MakeWcojPlan;
//   hybrid — OptimizeDps free to mix bind-moves with R-join moves.
// Result sets must be identical across strategies (sorted compare; row
// ORDER may differ because the plans differ). Times are best-of-N of
// the executor's elapsed_ms.
//
// An acyclic fig5-style path workload rides along as the no-regression
// guard: hybrid's bind-gating must produce the IDENTICAL plan binary
// produces (checked structurally), so acyclic suites cannot regress.
//
// Results go to BENCH_wcoj.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "exec/engine.h"
#include "gdb/database.h"
#include "graph/generators.h"
#include "opt/dps_optimizer.h"
#include "opt/wcoj_planner.h"

namespace fgpm {
namespace {

struct PatternSpec {
  std::string name;
  std::string text;
};

struct Cell {
  unsigned threads = 0;
  double binary_ms = 0;
  double wcoj_ms = 0;
  double hybrid_ms = 0;
  uint64_t rows = 0;
  uint64_t kway_probes = 0;   // wcoj run
  uint64_t kway_hits = 0;     // wcoj run
  uint64_t reach_pruned = 0;  // wcoj run
  double speedup() const {
    double best = std::min(wcoj_ms, hybrid_ms);
    return best > 0 ? binary_ms / best : 0;
  }
};

struct PatternResult {
  std::string graph, pattern, text;
  std::vector<Cell> cells;
};

double BestOf(Executor& exec, const Pattern& p, const Plan& plan, int reps,
              MatchResult* out) {
  return bench::BestOfMs(reps, [&](int rep) {
    auto r = exec.Execute(p, plan);
    FGPM_CHECK(r.ok());
    double ms = r->stats.elapsed_ms;
    if (rep == 0) *out = std::move(*r);
    return ms;
  });
}

PatternResult RunPattern(const std::string& graph_name, GraphDatabase& db,
                         const PatternSpec& spec, int reps) {
  PatternResult out;
  out.graph = graph_name;
  out.pattern = spec.name;
  out.text = spec.text;

  auto p = Pattern::Parse(spec.text);
  FGPM_CHECK(p.ok());
  CostParams params;
  params.factorized = true;

  auto binary = OptimizeDps(*p, db.catalog(), params, JoinStrategy::kBinary);
  auto wcoj = MakeWcojPlan(*p, db.catalog(), params);
  auto hybrid = OptimizeDps(*p, db.catalog(), params, JoinStrategy::kHybrid);
  FGPM_CHECK(binary.ok() && wcoj.ok() && hybrid.ok());

  std::printf("  %s (%s)\n", spec.name.c_str(), spec.text.c_str());
  for (unsigned threads : {1u, 4u, 8u}) {
    Executor exec(&db, ExecOptions{.num_threads = threads});
    Cell cell;
    cell.threads = threads;
    MatchResult rb, rw, rh;
    cell.binary_ms = BestOf(exec, *p, *binary, reps, &rb);
    cell.wcoj_ms = BestOf(exec, *p, *wcoj, reps, &rw);
    cell.hybrid_ms = BestOf(exec, *p, *hybrid, reps, &rh);
    cell.rows = rb.rows.size();
    cell.kway_probes = rw.stats.operators.kway_intersect_probes;
    cell.kway_hits = rw.stats.operators.kway_intersect_hits;
    cell.reach_pruned = rw.stats.operators.wcoj_reach_pruned;
    // Row-identical across strategies: the three plans bind the same
    // pattern, so the result SETS must agree exactly (order may differ
    // between plans; within one plan it is deterministic).
    rb.SortRows();
    rw.SortRows();
    rh.SortRows();
    FGPM_CHECK(rw.rows == rb.rows);
    FGPM_CHECK(rh.rows == rb.rows);
    std::printf(
        "    %u thread%s: binary %9.2f ms, wcoj %9.2f ms, hybrid %9.2f ms "
        " %5.2fx  (%llu rows)\n",
        threads, threads == 1 ? " " : "s", cell.binary_ms, cell.wcoj_ms,
        cell.hybrid_ms, cell.speedup(), (unsigned long long)cell.rows);
    std::fflush(stdout);
    out.cells.push_back(cell);
  }
  return out;
}

// The no-regression guard: on an acyclic pattern the hybrid search must
// degenerate to the binary search (bind-moves are gated on a cyclic
// core), so fig5/fig6-style suites see byte-identical plans.
bool AcyclicPlansIdentical(GraphDatabase& db) {
  CostParams params;
  params.factorized = true;
  for (const char* text :
       {"L0->L1; L1->L2; L2->L3; L3->L4", "L0->L1; L0->L2; L1->L3; L1->L4"}) {
    auto p = Pattern::Parse(text);
    FGPM_CHECK(p.ok());
    auto binary = OptimizeDps(*p, db.catalog(), params, JoinStrategy::kBinary);
    auto hybrid = OptimizeDps(*p, db.catalog(), params, JoinStrategy::kHybrid);
    FGPM_CHECK(binary.ok() && hybrid.ok());
    if (binary->steps.size() != hybrid->steps.size()) return false;
    for (size_t i = 0; i < binary->steps.size(); ++i) {
      const PlanStep&a = binary->steps[i], &b = hybrid->steps[i];
      if (a.kind != b.kind || a.edge != b.edge ||
          a.bound_is_source != b.bound_is_source ||
          a.scan_node != b.scan_node) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace
}  // namespace fgpm

int main(int argc, char** argv) {
  using namespace fgpm;
  int reps = 3;
  uint64_t seed = 0xc0de;
  // Sizes are modest on purpose: the ER cyclic patterns are output-bound
  // (the diamond alone yields ~2.4M rows at 1200 nodes), so larger graphs
  // mostly measure result materialization, not join strategy.
  uint32_t sf_nodes = 4000, er_nodes = 1200;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--reps=", 0) == 0) reps = std::stoi(arg.substr(7));
    if (arg.rfind("--seed=", 0) == 0) seed = std::stoull(arg.substr(7));
    if (arg.rfind("--sf-nodes=", 0) == 0)
      sf_nodes = std::stoul(arg.substr(11));
    if (arg.rfind("--er-nodes=", 0) == 0)
      er_nodes = std::stoul(arg.substr(11));
  }

  bench::PrintHeader(
      "Join strategy A/B — binary R-joins vs WCOJ vs hybrid",
      "cyclic patterns, one shared database build per graph; identical "
      "result sets required; best-of-N elapsed ms per (strategy, threads)",
      1.0);
  std::printf("reps %d, scale-free %u nodes, erdos-renyi %u nodes\n\n", reps,
              sf_nodes, er_nodes);

  // Tournament orientations (transitivity-compatible) for the DAG
  // scale-free graph; directed-cycle orientations for the cyclic ER
  // graph, where matches are SCC-local and binary plans prune late.
  const std::vector<PatternSpec> sf_patterns = {
      {"triangle", "L0->L1; L0->L2; L1->L2"},
      {"4clique", "L0->L1; L0->L2; L0->L3; L1->L2; L1->L3; L2->L3"},
      {"5cycle", "L0->L1; L1->L2; L2->L3; L3->L4; L0->L4"},
      {"diamond", "L0->L1; L0->L2; L1->L3; L2->L3"},
  };
  const std::vector<PatternSpec> er_patterns = {
      {"triangle", "L0->L1; L1->L2; L2->L0"},
      {"4clique", "L0->L1; L1->L2; L2->L3; L3->L0; L0->L2; L1->L3"},
      {"5cycle", "L0->L1; L1->L2; L2->L3; L3->L4; L4->L0"},
      {"diamond", "L0->L1; L0->L2; L1->L3; L2->L3"},
  };

  std::vector<PatternResult> results;
  bool acyclic_identical = true;
  double clique8 = 0;  // best 4-clique speedup at 8 threads

  struct GraphCase {
    const char* name;
    Graph g;
    const std::vector<PatternSpec>* patterns;
  };
  std::vector<GraphCase> graphs;
  graphs.push_back(
      {"scale_free", gen::ScaleFree(sf_nodes, 2, 6, seed), &sf_patterns});
  graphs.push_back({"erdos_renyi",
                    gen::ErdosRenyi(er_nodes, er_nodes * 6 / 5, 6, seed + 1),
                    &er_patterns});

  for (GraphCase& gc : graphs) {
    WallTimer build_timer;
    GraphDatabase db;
    FGPM_CHECK(db.Build(gc.g).ok());
    std::printf("%s: %zu nodes, %llu edges (db build %.0f ms)\n", gc.name,
                gc.g.NumNodes(), (unsigned long long)gc.g.NumEdges(),
                build_timer.ElapsedMillis());
    acyclic_identical = acyclic_identical && AcyclicPlansIdentical(db);
    for (const PatternSpec& spec : *gc.patterns) {
      results.push_back(RunPattern(gc.name, db, spec, reps));
      const PatternResult& r = results.back();
      if (r.pattern == "4clique") {
        clique8 = std::max(clique8, r.cells.back().speedup());
      }
    }
    std::printf("\n");
  }

  std::printf("4-clique speedup at 8 threads (best graph): %.2fx\n",
              clique8);
  std::printf("acyclic plans identical under hybrid: %s\n",
              acyclic_identical ? "yes" : "NO — REGRESSION");

  FILE* f = std::fopen("BENCH_wcoj.json", "w");
  FGPM_CHECK(f != nullptr);
  std::fprintf(f,
               "{\n  \"bench\": \"wcoj\",\n  \"reps\": %d,\n"
               "  \"identical_rows\": true,\n"
               "  \"acyclic_plans_identical\": %s,\n"
               "  \"fourclique_speedup_8t\": %.3f,\n  \"patterns\": [\n",
               reps, acyclic_identical ? "true" : "false", clique8);
  for (size_t i = 0; i < results.size(); ++i) {
    const PatternResult& r = results[i];
    std::fprintf(f,
                 "    {\"graph\": \"%s\", \"pattern\": \"%s\", "
                 "\"text\": \"%s\",\n     \"cells\": [\n",
                 r.graph.c_str(), r.pattern.c_str(), r.text.c_str());
    for (size_t j = 0; j < r.cells.size(); ++j) {
      const Cell& c = r.cells[j];
      std::fprintf(
          f,
          "      {\"threads\": %u, \"binary_ms\": %.3f, \"wcoj_ms\": %.3f, "
          "\"hybrid_ms\": %.3f, \"speedup\": %.3f, \"rows\": %llu,\n"
          "       \"kway_probes\": %llu, \"kway_hits\": %llu, "
          "\"reach_pruned\": %llu}%s\n",
          c.threads, c.binary_ms, c.wcoj_ms, c.hybrid_ms, c.speedup(),
          (unsigned long long)c.rows, (unsigned long long)c.kway_probes,
          (unsigned long long)c.kway_hits,
          (unsigned long long)c.reach_pruned,
          j + 1 < r.cells.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_wcoj.json\n");
  return 0;
}
