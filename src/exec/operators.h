// Physical operators of the R-join/R-semijoin engine:
//   HpsjBaseJoin — Algorithm 1 (HPSJ) over two base tables.
//   ApplyFilter  — Algorithm 2 Filter == R-semijoin; a call carries one
//                  or more semijoins evaluated in ONE scan of the
//                  temporal table with shared getCenters fetches
//                  (Remark 3.1).
//   ApplyFetch   — Algorithm 2 Fetch: expands pending centers through
//                  the cluster-based R-join index. The expansion
//                  appends a delta column instead of re-widening the
//                  row block (factorized tables), expands each distinct
//                  pending-pool entry once, and can evaluate fused
//                  select edges on candidates *before* they are
//                  appended (fused_selects).
//   ApplySelect  — self R-join (Eq. 5): reachability selection between
//                  two bound columns via graph codes.
//
// Parallelism: every operator takes an optional ThreadPool. HPSJ fans
// out over 2-hop centers; filter/fetch/select fan out over contiguous
// temporal-table row ranges; subcluster reads fan out over fixed key
// ranges (SubclusterStore). Each chunk emits into its own buffer;
// filter/fetch/select merge chunks in chunk order, and HPSJ dedups its
// packed pair set through fixed hash buckets that are sorted + uniqued
// independently and concatenated in bucket order. Either way the
// produced ROWS — and each row's pending center list CentersFor(r) —
// are identical for every thread count, including the sequential
// pool == nullptr path. The internal pending-pool layout may differ
// with chunking (pools deduplicate per chunk), as may the memo-affected
// work counters: code_fetches and reach_memo_* depend on how rows were
// partitioned across chunks/workers (cluster_fetches does not). The produced rows never do —
// dedup and memoization only short-circuit recomputations whose result
// is a pure function of the probed node (pair).
#ifndef FGPM_EXEC_OPERATORS_H_
#define FGPM_EXEC_OPERATORS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "exec/plan.h"
#include "exec/temporal_table.h"
#include "gdb/database.h"
#include "query/pattern.h"
#include "reach/reach_memo.h"

namespace fgpm {

struct OperatorStats {
  uint64_t rows_scanned = 0;     // temporal rows examined by filters
  uint64_t rows_pruned = 0;      // rows dropped by filters/selects
  uint64_t pairs_emitted = 0;    // tuples produced before dedup
  uint64_t code_fetches = 0;     // getCenters / graph-code retrievals
  // Subclusters read from the R-join index: once per distinct
  // (center, side, label) per operator call, so the count is the same
  // at every thread count.
  uint64_t cluster_fetches = 0;
  uint64_t wtable_lookups = 0;
  // Temporal tables are disk-resident in the paper's system (Shore):
  // each operator re-reads its input table and writes its output table.
  // We keep them in memory for speed but charge the equivalent page I/O
  // so DP-vs-DPS I/O comparisons mean what they meant in the paper.
  uint64_t temporal_pages_read = 0;
  uint64_t temporal_pages_written = 0;
  // Per-query reachability memo traffic (filter Xi cache + select
  // verdict cache). Zero when no ExecScratch / disabled memos.
  uint64_t reach_memo_probes = 0;
  uint64_t reach_memo_hits = 0;
  // Materialization accounting: full-width rows written into temporal
  // storage or the result set, and the NodeId-copy bytes the factorized
  // representation avoided relative to re-widening a row-major block.
  uint64_t rows_materialized = 0;
  uint64_t copy_bytes_avoided = 0;
  // WCOJ bind accounting: k-way intersection work (candidates tested
  // against a non-driver set / candidates surviving every set) and
  // candidates that survived the set intersection but were dropped by a
  // per-candidate reachability probe.
  uint64_t kway_intersect_probes = 0;
  uint64_t kway_intersect_hits = 0;
  uint64_t wcoj_reach_pruned = 0;

  // Stats-delta protocol: every operator accumulates into a call-local
  // OperatorStats and folds it into the caller's struct exactly once,
  // on success (worker chunks fold into the call-local struct on the
  // calling thread after the parallel region joins). So the caller's
  // struct only ever changes by one Add per operator call — the
  // executor snapshots it around each plan step to attribute deltas to
  // that step's trace span, race-free at any thread count.
  void Add(const OperatorStats& o) {
    rows_scanned += o.rows_scanned;
    rows_pruned += o.rows_pruned;
    pairs_emitted += o.pairs_emitted;
    code_fetches += o.code_fetches;
    cluster_fetches += o.cluster_fetches;
    wtable_lookups += o.wtable_lookups;
    temporal_pages_read += o.temporal_pages_read;
    temporal_pages_written += o.temporal_pages_written;
    reach_memo_probes += o.reach_memo_probes;
    reach_memo_hits += o.reach_memo_hits;
    rows_materialized += o.rows_materialized;
    copy_bytes_avoided += o.copy_bytes_avoided;
    kway_intersect_probes += o.kway_intersect_probes;
    kway_intersect_hits += o.kway_intersect_hits;
    wcoj_reach_pruned += o.wcoj_reach_pruned;
  }
};

// Operator-owned scratch the Executor threads through a query: per-
// worker reachability memos (cleared per query) plus reusable buffers
// that hoist per-call allocations out of the hot probe loops. Operators
// accept scratch == nullptr (tests and benches calling them directly)
// and fall back to local temporaries.
struct ExecScratch {
  struct Worker {
    // ApplySelect + fused fetch selects: PackPair(u, v) -> verdict.
    ReachMemo select_memo;
    // ApplyFilter: (node << 8 | item) -> Xi slot. The memo slot index
    // doubles as the xi_pool index, so cached center lists are bounded
    // by the memo capacity. Cleared at the start of every filter call
    // (item indexes are call-local).
    ReachMemo filter_memo;
    std::vector<std::vector<CenterId>> xi_pool;
    GraphCodeRecord rx, ry;  // reused decoded-code records
  };
  std::vector<Worker> workers;
  // W(X, Y) probe buffers, reused call over call (capacity persists):
  // one for HPSJ's borrowed-buffer LookupSpan, one pool for filter items.
  std::vector<CenterId> wtable_scratch;
  std::vector<std::vector<CenterId>> wcenters_pool;

  // Sizes per-worker state; entries == 0 disables both memos.
  void Configure(unsigned num_workers, size_t entries) {
    workers.assign(std::max(1u, num_workers), Worker{});
    for (Worker& w : workers) {
      w.select_memo.Reset(entries);
      w.filter_memo.Reset(entries);
      w.xi_pool.assign(w.filter_memo.capacity(), {});
    }
  }

  // Per-query reset: memos are operator-call-scoped anyway (each
  // operator clears at entry and folds its traffic into OperatorStats
  // at exit), but clearing here too keeps stale verdicts from ever
  // crossing a query boundary (e.g. after an edge insert). O(1) per
  // worker via epochs.
  void BeginQuery() {
    for (Worker& w : workers) {
      w.select_memo.Clear();
      w.filter_memo.Clear();
    }
  }
};

// Step-local subcluster store of the R-join operators (HPSJ, Fetch and
// the WCOJ bind): the side/label subclusters of an ascending, distinct
// center list, each read once, in directory-key order, through
// RJoinIndex::ReadSubclusters. The list is cut into fixed contiguous key
// ranges of kCentersPerRead centers, read in parallel when a pool is
// given; the ranges depend only on the list, so the pages read and the
// pool accesses made are the same at every thread count.
class SubclusterStore {
 public:
  static constexpr size_t kCentersPerRead = 256;

  Status Read(const RJoinIndex& index, std::vector<CenterId> centers,
              RJoinIndex::Side side, LabelId label, ThreadPool* pool);

  // Subclusters read (one per center, empty ones included).
  size_t size() const { return centers_.size(); }
  const std::vector<CenterId>& centers() const { return centers_; }
  std::span<const NodeId> At(size_t i) const {
    return runs_[i / kCentersPerRead][i % kCentersPerRead];
  }

  // The union of the subclusters of `centers` (ascending), ascending and
  // distinct, into `out`; centers this store lacks are taken from `more`
  // when given. Returns the ids read before the dedup.
  uint64_t Expand(std::span<const CenterId> centers, std::vector<NodeId>* out,
                  const SubclusterStore* more = nullptr) const;

 private:
  bool Find(CenterId w, std::span<const NodeId>* ids) const;

  std::vector<CenterId> centers_;
  std::vector<SubclusterRun> runs_;
};

// Charged pages for one pass over a temporal table's current contents
// (base block + delta levels + per-row pending center lists).
uint64_t TemporalTablePages(const TemporalTable& table);

// node_labels[i]: data-graph LabelId for pattern node i. Callers must
// have verified all labels exist (missing label => empty result upstream).
// Opens a plan with one base table: a single-column temporal table of
// ext(X) (the paper's DPS plans can semijoin a base table before any
// R-join — Figure 3, status S1).
Status ScanBase(const GraphDatabase& db, const Pattern& pattern,
                const std::vector<LabelId>& node_labels,
                PatternNodeId scan_node, TemporalTable* out,
                OperatorStats* stats);

Status HpsjBaseJoin(const GraphDatabase& db, const Pattern& pattern,
                    const std::vector<LabelId>& node_labels, uint32_t edge,
                    TemporalTable* out, OperatorStats* stats,
                    ThreadPool* pool = nullptr, ExecScratch* scratch = nullptr);

Status ApplyFilter(const GraphDatabase& db, const Pattern& pattern,
                   const std::vector<LabelId>& node_labels,
                   const std::vector<FilterItem>& items, TemporalTable* table,
                   OperatorStats* stats, ThreadPool* pool = nullptr,
                   ExecScratch* scratch = nullptr);

// `fused_selects`: pattern edges whose other endpoint is already bound,
// evaluated per candidate inside the expansion loop — rejected
// candidates are never appended.
Status ApplyFetch(const GraphDatabase& db, const Pattern& pattern,
                  const std::vector<LabelId>& node_labels, uint32_t edge,
                  bool bound_is_source, TemporalTable* table,
                  OperatorStats* stats, ThreadPool* pool = nullptr,
                  ExecScratch* scratch = nullptr,
                  const std::vector<uint32_t>& fused_selects = {});

Status ApplySelect(const GraphDatabase& db, const Pattern& pattern,
                   const std::vector<LabelId>& node_labels, uint32_t edge,
                   TemporalTable* table, OperatorStats* stats,
                   ThreadPool* pool = nullptr, ExecScratch* scratch = nullptr);

}  // namespace fgpm

#endif  // FGPM_EXEC_OPERATORS_H_
