// Batched multi-query execution: run several pattern queries against
// one GraphDatabase sharing their opening work (Remark 3.1 extended
// across queries).
//
// Concurrent queries over the same data overwhelmingly open the same
// way — a scan of one label's base table, optionally R-semijoined by a
// filter, or one HPSJ base join of a hot label pair. ExecuteBatch
// groups the batch by that *opening signature*; each group computes its
// seed table ONCE (with intra-query parallelism over the executor's
// pool), then fans the per-query pipeline tails out across the pool,
// one query per task, each resuming from a private copy of the seed at
// its plan's first unshared step.
//
// Grouping key (labels are catalog LabelIds, so two spellings of the
// same opening collide):
//   kScanBase [+ kFilter]:  scan label + the sorted multiset of
//                           (other-endpoint label, bound direction) of
//                           the filter's semijoins;
//   kHpsjBase:              the edge's (source label, target label).
//
// A seed is translated into a member's coordinates structurally: the
// schema's pattern-node ids map by label identity, and each pending
// semijoin slot maps to the member edge with the same (other label,
// direction) — unique, because patterns reject duplicate edges.
//
// Pipeline tails run single-threaded (the batch itself is the unit of
// parallelism); operators produce identical rows for every thread
// count, so each query's result is row-identical to a solo Execute.
#ifndef FGPM_EXEC_BATCH_H_
#define FGPM_EXEC_BATCH_H_

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "exec/engine.h"
#include "gdb/database.h"
#include "query/pattern.h"

namespace fgpm {

// One query of a batch. `pattern` and `plan` must outlive the call;
// `node_labels` are the pattern's labels resolved against the catalog
// (resolvable == false means some label has no extent — the result is
// empty by definition and the query never executes).
struct BatchQuery {
  const Pattern* pattern = nullptr;
  const Plan* plan = nullptr;
  std::vector<LabelId> node_labels;
  bool resolvable = true;
};

struct BatchExecStats {
  uint64_t shared_seed_groups = 0;  // groups that seeded >= 2 queries
  uint64_t shared_seed_reuses = 0;  // queries served from another's seed
};

// Reusable per-batch scratch: a one-worker ExecScratch per pipeline-
// tail worker. Configuring an ExecScratch allocates memo tables
// (megabytes at the 65536 reach_cache_entries default), so callers that
// batch repeatedly MUST reuse one of these across calls — Configure is
// idempotent for an unchanged worker count and only epoch-clears.
//
// Tail memos are capped at kTailMemoEntries: a tail runs ONE query's
// pipeline after the shared seed, so its memo working set is per-query,
// not per-scan — full-size tables would cost more to zero than they
// save in probes (the lossy open-addressed memo stays correct at any
// size). Seed builds use a borrowed full-size multi-worker scratch
// (typically Executor::scratch(), idle while the batch runs).
struct BatchScratch {
  static constexpr size_t kTailMemoEntries = 8192;

  std::vector<ExecScratch> tails;

  void Configure(unsigned workers, size_t entries) {
    const size_t capped = std::min(entries, kTailMemoEntries);
    if (workers == workers_ && capped == entries_) {
      for (ExecScratch& s : tails) s.BeginQuery();
      return;
    }
    workers_ = workers;
    entries_ = capped;
    tails.resize(workers);
    for (ExecScratch& s : tails) s.Configure(1, capped);
  }

 private:
  unsigned workers_ = 0;
  size_t entries_ = SIZE_MAX;  // distinct from any real configuration
};

// Executes every query of the batch; results[i] answers queries[i].
// Seed-step operator counters fold into the group leader's stats (the
// work happened once — charging every member would double-count);
// members that reused a seed carry only their own tail's counters.
// Per-query buffer-pool deltas are not attributed (the pool counters
// are database-global and the batch interleaves); stats.io stays zero.
// `scratch` may be null (a call-local one is built — fine for one-off
// calls, wasteful in a serving loop). `seed_scratch` is the multi-worker
// scratch used for shared seed builds — pass the owning Executor's
// scratch() (idle while the batch runs); null builds a call-local one.
Status ExecuteBatch(const GraphDatabase& db,
                    const std::vector<BatchQuery>& queries,
                    ThreadPool* pool,
                    BatchScratch* scratch, ExecScratch* seed_scratch,
                    std::vector<MatchResult>* results, BatchExecStats* stats);

}  // namespace fgpm

#endif  // FGPM_EXEC_BATCH_H_
