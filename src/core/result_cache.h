// Semantic result cache: bounded, memory-budgeted storage of match
// results keyed by canonical pattern form (see query/containment.h).
//
// Two ways a query is answered from the cache:
//   * exact hit — the canonical key matches; cached rows are copied out;
//   * containment hit — a cached *more general* pattern contains the
//     query (Contains(cached, query) succeeds); the cached rows are
//     replayed through a filter-down pipeline: permute columns through
//     the containment homomorphism, then re-check the residual edges
//     per row with graph-code reachability probes (ReplayContainment).
//
// Rows are stored flattened in canonical node order, so one entry
// serves every spelling of its pattern. Eviction is LRU by bytes; a
// single result larger than the whole budget is never cached. The cache
// is deliberately single-threaded (owned by one GraphMatcher, like the
// plan cache); invalidation is the owner's job — GraphMatcher drops the
// whole cache when GraphDatabase::epoch() moves.
#ifndef FGPM_CORE_RESULT_CACHE_H_
#define FGPM_CORE_RESULT_CACHE_H_

#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "exec/engine.h"
#include "gdb/database.h"
#include "query/containment.h"
#include "query/pattern.h"

namespace fgpm {

class ResultCache {
 public:
  explicit ResultCache(size_t budget_bytes) : budget_(budget_bytes) {}

  struct Entry {
    Pattern pattern;           // canonical coordinates
    std::vector<NodeId> rows;  // row-major, arity ids per row
    size_t arity = 0;
    size_t num_rows = 0;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_pos;
  };

  // Exact lookup; refreshes recency and bumps hits_exact on success.
  // The pointer stays valid until the next Insert/Clear.
  const Entry* LookupExact(const std::string& key);

  struct ContainmentHit {
    const Entry* entry = nullptr;
    ContainmentMapping mapping;  // entry->pattern is the general side
  };
  // Scans cached entries for one whose pattern contains `specific`
  // (both in canonical coordinates). Among candidates, prefers the
  // fewest residual edges, then the fewest cached rows — the cheapest
  // replay. Refreshes recency. Does NOT bump hits_containment: the
  // owner may still decline the replay on cost, so it records the
  // outcome itself (RecordContainmentHit / RecordMiss).
  std::optional<ContainmentHit> FindContaining(const Pattern& specific);

  // The owner's verdict after FindContaining: the replay actually ran...
  void RecordContainmentHit() { ++hits_containment_; }
  // ...or every lookup path came up empty / was declined.
  void RecordMiss() { ++misses_; }

  // Inserts rows (already permuted into canonical node order) under
  // `key`. Replaces an existing entry for the same key. Oversized
  // results (entry alone over the whole budget) are skipped; otherwise
  // least-recently-used entries are evicted until within budget.
  void Insert(const std::string& key, Pattern pattern,
              const std::vector<std::vector<NodeId>>& rows);

  void Clear();

  size_t size() const { return entries_.size(); }
  size_t bytes() const { return bytes_; }
  size_t budget_bytes() const { return budget_; }
  uint64_t hits_exact() const { return hits_exact_; }
  uint64_t hits_containment() const { return hits_containment_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t inserts() const { return inserts_; }

 private:
  void Evict(const std::string& key);

  size_t budget_;
  size_t bytes_ = 0;
  std::list<std::string> lru_;  // front = most recent
  std::unordered_map<std::string, Entry> entries_;
  uint64_t hits_exact_ = 0;
  uint64_t hits_containment_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t inserts_ = 0;
};

// Filter-down replay of a containment hit: for every cached row of
// `entry` (general canonical node order), permute the columns through
// mapping.general_to_specific into `specific`'s node order, then keep
// the row iff every residual edge passes a graph-code reachability
// probe (ProbeReach, the select operator's check).
// node_labels are `specific`'s labels resolved against the catalog.
// Appends surviving rows to out_rows in deterministic (chunk-merged)
// order and folds rows_scanned/rows_pruned/code_fetches into stats.
Status ReplayContainment(const GraphDatabase& db, const Pattern& specific,
                         const std::vector<LabelId>& node_labels,
                         const ResultCache::Entry& entry,
                         const ContainmentMapping& mapping, ThreadPool* pool,
                         std::vector<std::vector<NodeId>>* out_rows,
                         OperatorStats* stats);

}  // namespace fgpm

#endif  // FGPM_CORE_RESULT_CACHE_H_
