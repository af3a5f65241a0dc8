#include "core/result_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "gdb/graph_codes.h"

namespace fgpm {

namespace {

// Bookkeeping bytes per entry beyond the row block: the key lives twice
// (map + LRU list), plus map node / list node / Entry overhead. An
// estimate is fine — the budget bounds memory, it does not meter it.
size_t EntryBytes(const std::string& key, size_t num_ids) {
  return num_ids * sizeof(NodeId) + 2 * key.size() + 160;
}

}  // namespace

const ResultCache::Entry* ResultCache::LookupExact(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  ++hits_exact_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return &it->second;
}

std::optional<ResultCache::ContainmentHit> ResultCache::FindContaining(
    const Pattern& specific) {
  const Entry* best = nullptr;
  ContainmentMapping best_mapping;
  for (const auto& [key, entry] : entries_) {
    if (entry.pattern.num_nodes() != specific.num_nodes()) continue;
    auto m = Contains(entry.pattern, specific);
    if (!m) continue;
    const bool better =
        best == nullptr ||
        m->residual.size() < best_mapping.residual.size() ||
        (m->residual.size() == best_mapping.residual.size() &&
         entry.num_rows < best->num_rows);
    if (better) {
      best = &entry;
      best_mapping = std::move(*m);
    }
  }
  if (best == nullptr) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, best->lru_pos);
  return ContainmentHit{best, std::move(best_mapping)};
}

void ResultCache::Insert(const std::string& key, Pattern pattern,
                         const std::vector<std::vector<NodeId>>& rows) {
  const size_t arity = pattern.num_nodes();
  const size_t entry_bytes = EntryBytes(key, rows.size() * arity);
  if (entry_bytes > budget_) return;  // would evict everything for nothing

  auto it = entries_.find(key);
  if (it != entries_.end()) Evict(key);

  while (!entries_.empty() && bytes_ + entry_bytes > budget_) {
    Evict(lru_.back());
    ++evictions_;
  }

  Entry e;
  e.pattern = std::move(pattern);
  e.arity = arity;
  e.num_rows = rows.size();
  e.bytes = entry_bytes;
  e.rows.reserve(rows.size() * arity);
  for (const auto& row : rows) {
    FGPM_CHECK(row.size() == arity);
    e.rows.insert(e.rows.end(), row.begin(), row.end());
  }
  lru_.push_front(key);
  e.lru_pos = lru_.begin();
  bytes_ += entry_bytes;
  ++inserts_;
  entries_.emplace(key, std::move(e));
}

void ResultCache::Evict(const std::string& key) {
  auto it = entries_.find(key);
  FGPM_CHECK(it != entries_.end());
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void ResultCache::Clear() {
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

Status ReplayContainment(const GraphDatabase& db, const Pattern& specific,
                         const std::vector<LabelId>& node_labels,
                         const ResultCache::Entry& entry,
                         const ContainmentMapping& mapping, ThreadPool* pool,
                         std::vector<std::vector<NodeId>>* out_rows,
                         OperatorStats* stats) {
  const size_t arity = entry.arity;
  FGPM_CHECK(arity == specific.num_nodes());
  const size_t nrows = entry.num_rows;

  // Column permutation general -> specific: out[g2s[g]] = row[g].
  const std::vector<PatternNodeId>& g2s = mapping.general_to_specific;

  const size_t chunk =
      pool == nullptr ? std::max<size_t>(nrows, 1)
                      : std::max<size_t>(256, nrows / (4 * pool->size() + 1));
  const size_t nchunks = ThreadPool::NumChunks(nrows, chunk);
  struct ChunkOut {
    std::vector<NodeId> rows;  // survivors, specific node order
    uint64_t scanned = 0;
    uint64_t pruned = 0;
    uint64_t code_fetches = 0;
  };
  std::vector<ChunkOut> parts(nchunks);
  std::vector<Status> errs(nchunks);

  auto body = [&](unsigned, size_t c, size_t begin, size_t end) {
    ChunkOut& part = parts[c];
    GraphCodeRecord rx, ry;
    std::vector<NodeId> out(arity);
    for (size_t r = begin; r < end; ++r) {
      ++part.scanned;
      const NodeId* row = entry.rows.data() + r * arity;
      for (PatternNodeId g = 0; g < arity; ++g) out[g2s[g]] = row[g];
      bool keep = true;
      for (const PatternEdge& e : mapping.residual) {
        Result<bool> reachable =
            ProbeReach(db, out[e.from], node_labels[e.from], out[e.to],
                       node_labels[e.to], &rx, &ry, &part.code_fetches);
        if (!reachable.ok()) {
          errs[c] = reachable.status();
          return;
        }
        if (!*reachable) {
          keep = false;
          break;
        }
      }
      if (keep) {
        part.rows.insert(part.rows.end(), out.begin(), out.end());
      } else {
        ++part.pruned;
      }
    }
  };
  if (pool == nullptr || nchunks <= 1) {
    if (nrows > 0) body(0, 0, 0, nrows);
  } else {
    pool->ParallelFor(nrows, chunk, body);
  }
  for (const Status& s : errs) {
    if (!s.ok()) return s;
  }

  // Deterministic output: chunks merge in index order, so the replayed
  // row order never depends on the thread count.
  for (ChunkOut& part : parts) {
    stats->rows_scanned += part.scanned;
    stats->rows_pruned += part.pruned;
    stats->code_fetches += part.code_fetches;
    for (size_t i = 0; i + arity <= part.rows.size(); i += arity) {
      out_rows->emplace_back(part.rows.begin() + i,
                             part.rows.begin() + i + arity);
    }
  }
  return Status::OK();
}

}  // namespace fgpm
