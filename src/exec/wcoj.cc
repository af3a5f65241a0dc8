#include "exec/wcoj.h"

#include <algorithm>
#include <unordered_map>

#include "common/intersect_kernels.h"
#include "common/sorted_vector.h"

namespace fgpm {
namespace {

// Mirrors the chunk helpers of operators.cc (kept file-local there).
void RunChunked(ThreadPool* pool, size_t n, size_t chunk_size,
                const ThreadPool::Body& body) {
  if (chunk_size == 0) chunk_size = 1;
  if (pool == nullptr) {
    for (size_t begin = 0; begin < n; begin += chunk_size) {
      body(0, begin / chunk_size, begin, std::min(n, begin + chunk_size));
    }
    return;
  }
  pool->ParallelFor(n, chunk_size, body);
}

size_t ChunkFor(size_t n, ThreadPool* pool, size_t min_chunk) {
  if (n == 0) return 1;
  if (pool == nullptr || pool->size() <= 1) return n;
  size_t target = n / (static_cast<size_t>(pool->size()) * 8) + 1;
  return std::max(min_chunk, target);
}

Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void ExtendSortOrder(TemporalTable* table, size_t new_col) {
  if (table->sorted_by().empty()) return;
  std::vector<size_t> sb = table->sorted_by();
  sb.push_back(new_col);
  table->set_sorted_by(std::move(sb));
}

Status FoldStats(Status s, OperatorStats* stats, const OperatorStats& local) {
  if (s.ok()) stats->Add(local);
  return s;
}

// A constraint expansion dwarfing the driver's estimate by more than
// this ratio is not materialized; its candidates are verified by
// per-candidate reachability probes instead.
constexpr double kMaterializeSlack = 8.0;

// One constraint edge of the bind, resolved against the table.
struct ConstraintCtx {
  uint32_t edge = 0;
  bool forward = false;  // bound endpoint is the edge source
  size_t col = 0;        // bound endpoint's column in the table
  LabelId col_label = 0;
  double avg_sub = 1.0;  // catalog: avg F/T-subcluster size per center
};

// Chunk-local memoized expansion of one (bound node, constraint):
// centers = code ∩ W, values = the reachable new-label nodes once
// expanded, plus an optional chunked-bitmap sidecar over values.
struct Expansion {
  std::vector<CenterId> centers;
  std::vector<NodeId> values;
  std::vector<uint32_t> chunk_ids;
  std::vector<uint64_t> words;
  bool marked = false;  // some row needs it expanded
  bool expanded = false;

  SortedSetView View() const {
    return {values.data(), values.size(), chunk_ids.data(), words.data(),
            chunk_ids.size()};
  }
};

Status ApplyWcojBindImpl(const GraphDatabase& db, const Pattern& pattern,
                         const std::vector<LabelId>& node_labels,
                         const PlanStep& step, TemporalTable* table,
                         OperatorStats* stats, ThreadPool* pool) {
  if (step.wcoj_edges.empty()) {
    return Status::InvalidArgument("bind step without constraints");
  }
  stats->temporal_pages_read += TemporalTablePages(*table);
  const auto& edges = pattern.edges();
  const PatternNodeId new_node = step.scan_node;
  const LabelId new_label = node_labels[new_node];
  const size_t k = step.wcoj_edges.size();
  if (k > 64) {
    // IntersectKWayU32 takes at most 64 sets.
    return Status::InvalidArgument("bind step with more than 64 constraints");
  }

  // Resolve each constraint and prefetch its W(X, Y) center list.
  std::vector<std::vector<CenterId>> wcenters(k);
  std::vector<ConstraintCtx> ctx(k);
  for (size_t i = 0; i < k; ++i) {
    const PatternEdge& e = edges[step.wcoj_edges[i]];
    ConstraintCtx& c = ctx[i];
    c.edge = step.wcoj_edges[i];
    c.forward = (e.to == new_node);
    if (!c.forward && e.from != new_node) {
      return Status::InvalidArgument("bind constraint does not touch vertex");
    }
    const PatternNodeId bound = c.forward ? e.from : e.to;
    auto col = table->ColumnOf(bound);
    if (!col) return Status::InvalidArgument("bind constraint not bound");
    c.col = *col;
    c.col_label = node_labels[bound];
    const LabelId lx = node_labels[e.from], ly = node_labels[e.to];
    FGPM_RETURN_IF_ERROR(db.wtable().Lookup(lx, ly, &wcenters[i]));
    ++stats->wtable_lookups;
    const auto& ps = db.catalog().Stats(lx, ly);
    const double centers = std::max<double>(1.0, ps.num_centers);
    c.avg_sub =
        std::max(1.0, (c.forward ? ps.sum_t : ps.sum_f) / centers);
  }

  const size_t ncols = table->NumColumns();
  const size_t nrows = table->NumRows();
  const bool chained = !table->deltas().empty();
  const std::vector<NodeId>& rows = table->raw_rows();
  const uint32_t bitmap_threshold = db.options().code_bitmap_threshold;

  // Gathered bound columns (delta-chained tables only), shared when two
  // constraints probe the same column.
  std::vector<std::vector<NodeId>> gathered(k);
  std::vector<const NodeId*> colv(k, nullptr);
  if (chained) {
    for (size_t i = 0; i < k; ++i) {
      bool shared = false;
      for (size_t j = 0; j < i && !shared; ++j) {
        if (ctx[j].col == ctx[i].col) {
          colv[i] = colv[j];
          shared = true;
        }
      }
      if (shared) continue;
      table->GatherColumn(ctx[i].col, &gathered[i]);
      colv[i] = gathered[i].data();
    }
  }

  // Pending filter slots are carried through: pools are shared, the
  // per-row indexes are re-emitted per output row.
  std::vector<TemporalTable::PendingSlot> new_pending;
  for (const auto& slot : table->pending()) {
    new_pending.push_back({slot.edge, slot.bound_is_source, slot.pool, {}});
  }

  // Row chunks: the same decomposition for every pass below, so a
  // chunk's entry pools and per-row entry indexes carry across passes.
  const size_t chunk = ChunkFor(nrows, pool, 128);
  const size_t nchunks = ThreadPool::NumChunks(nrows, chunk);
  constexpr uint8_t kDropped = 0xff;  // driver slot of a pruned row
  struct ChunkOut {
    std::vector<std::vector<Expansion>> pools;  // per constraint
    std::vector<uint32_t> entry;  // (r - begin) * k + i -> pools[i] index
    std::vector<uint8_t> driver;  // per row; kDropped once pruned
    std::vector<uint32_t> parent;  // new delta level
    std::vector<NodeId> value;
    std::vector<std::vector<uint32_t>> kept;  // per pending slot
    uint64_t rows_scanned = 0;
    uint64_t rows_pruned = 0;
    uint64_t code_fetches = 0;
    uint64_t pairs_emitted = 0;
    uint64_t reach_pruned = 0;
    KWayStats kway;
  };
  std::vector<ChunkOut> parts(nchunks);
  std::vector<Status> errs(nchunks);
  auto est_of = [&](size_t i, const Expansion& ent) {
    return ent.expanded ? static_cast<double>(ent.values.size())
                        : ent.centers.size() * ctx[i].avg_sub;
  };

  // Pass 1: each row's entry per constraint (code ∩ W, memoized per
  // probed node), and its driver — the constraint with the smallest
  // estimated expansion — which is marked for expansion.
  RunChunked(pool, nrows, chunk, [&](unsigned, size_t c, size_t begin,
                                     size_t end) {
    ChunkOut& part = parts[c];
    part.pools.resize(k);
    part.entry.resize((end - begin) * k);
    part.driver.assign(end - begin, kDropped);
    // Chunk-local entry memo per constraint: probed node -> pools index
    // (-1 = empty center set, row cannot match).
    std::vector<std::unordered_map<NodeId, int32_t>> seen(k);
    std::unordered_map<size_t, GraphCodeRecord> col_codes;  // per row
    std::vector<CenterId> xi;
    for (size_t r = begin; r < end; ++r) {
      ++part.rows_scanned;
      col_codes.clear();
      uint32_t* entry = &part.entry[(r - begin) * k];
      bool ok = true;
      for (size_t i = 0; i < k && ok; ++i) {
        const NodeId node =
            chained ? colv[i][r] : rows[r * ncols + ctx[i].col];
        auto [sit, inserted] = seen[i].try_emplace(node, -1);
        if (!inserted) {
          if (sit->second < 0) {
            ok = false;
          } else {
            entry[i] = static_cast<uint32_t>(sit->second);
          }
          continue;
        }
        auto it = col_codes.find(ctx[i].col);
        if (it == col_codes.end()) {
          GraphCodeRecord rec;
          Status s = db.GetCodes(node, ctx[i].col_label, &rec);
          if (!s.ok()) {
            errs[c] = std::move(s);
            return;
          }
          ++part.code_fetches;
          it = col_codes.emplace(ctx[i].col, std::move(rec)).first;
        }
        const auto& code = ctx[i].forward ? it->second.out : it->second.in;
        SortedIntersectInto(code, wcenters[i], &xi);
        if (xi.empty()) {
          ok = false;  // sit->second stays -1 (known-empty)
        } else {
          sit->second = static_cast<int32_t>(part.pools[i].size());
          entry[i] = static_cast<uint32_t>(sit->second);
          Expansion ent;
          ent.centers = xi;
          part.pools[i].push_back(std::move(ent));
        }
      }
      if (!ok) {
        ++part.rows_pruned;
        continue;
      }
      uint8_t driver = 0;
      for (size_t i = 1; i < k; ++i) {
        if (est_of(i, part.pools[i][entry[i]]) <
            est_of(driver, part.pools[driver][entry[driver]])) {
          driver = static_cast<uint8_t>(i);
        }
      }
      part.driver[r - begin] = driver;
      part.pools[driver][entry[driver]].marked = true;
    }
  });
  FGPM_RETURN_IF_ERROR(FirstError(errs));

  // Expands every marked entry. Per side, the subclusters of the marked
  // entries' centers that `earlier` did not read are read once each, in
  // key order; which entries are marked depends only on the rows, so the
  // reads are the same at every thread count.
  using Side = RJoinIndex::Side;
  auto side_of = [&](size_t i) {
    return ctx[i].forward ? Side::kT : Side::kF;
  };
  auto expand_marked = [&](const SubclusterStore* earlier,
                           SubclusterStore* stores) -> Status {
    for (Side side : {Side::kF, Side::kT}) {
      std::vector<CenterId> centers;
      for (const ChunkOut& part : parts) {
        for (size_t i = 0; i < k; ++i) {
          if (side_of(i) != side) continue;
          for (const Expansion& ent : part.pools[i]) {
            if (ent.marked && !ent.expanded) {
              centers.insert(centers.end(), ent.centers.begin(),
                             ent.centers.end());
            }
          }
        }
      }
      std::sort(centers.begin(), centers.end());
      centers.erase(std::unique(centers.begin(), centers.end()),
                    centers.end());
      if (earlier != nullptr) {
        const std::vector<CenterId>& done =
            earlier[static_cast<size_t>(side)].centers();
        std::vector<CenterId> fresh;
        std::set_difference(centers.begin(), centers.end(), done.begin(),
                            done.end(), std::back_inserter(fresh));
        centers = std::move(fresh);
      }
      SubclusterStore& store = stores[static_cast<size_t>(side)];
      FGPM_RETURN_IF_ERROR(store.Read(db.rjoin_index(), std::move(centers),
                                      side, new_label, pool));
      stats->cluster_fetches += store.size();
    }
    RunChunked(pool, nchunks, 1, [&](unsigned, size_t c, size_t, size_t) {
      ChunkOut& part = parts[c];
      for (size_t i = 0; i < k; ++i) {
        const size_t sd = static_cast<size_t>(side_of(i));
        for (Expansion& ent : part.pools[i]) {
          if (!ent.marked || ent.expanded) continue;
          part.pairs_emitted += stores[sd].Expand(
              ent.centers, &ent.values,
              earlier != nullptr ? &earlier[sd] : nullptr);
          if (bitmap_threshold != 0 &&
              ent.values.size() >= bitmap_threshold) {
            BuildChunkedBitmap(ent.values.data(), ent.values.size(),
                               &ent.chunk_ids, &ent.words);
          }
          ent.expanded = true;
        }
      }
    });
    return Status::OK();
  };

  // Round 1 expands the drivers. Round 2 marks, per surviving row, the
  // other constraints whose estimate is near the driver's actual size
  // (the rest stay per-candidate probes), and expands those.
  {
    SubclusterStore drivers[2], others[2];
    FGPM_RETURN_IF_ERROR(expand_marked(nullptr, drivers));
    RunChunked(pool, nrows, chunk, [&](unsigned, size_t c, size_t begin,
                                       size_t end) {
      ChunkOut& part = parts[c];
      for (size_t r = begin; r < end; ++r) {
        const uint8_t d = part.driver[r - begin];
        if (d == kDropped) continue;
        const uint32_t* entry = &part.entry[(r - begin) * k];
        const double driver_size =
            static_cast<double>(part.pools[d][entry[d]].values.size());
        if (driver_size == 0) {
          part.driver[r - begin] = kDropped;
          ++part.rows_pruned;
          continue;
        }
        for (size_t i = 0; i < k; ++i) {
          Expansion& ent = part.pools[i][entry[i]];
          if (i != d && est_of(i, ent) <= kMaterializeSlack * driver_size) {
            ent.marked = true;
          }
        }
      }
    });
    FGPM_RETURN_IF_ERROR(expand_marked(drivers, others));
  }

  // Pass 3: per surviving row, intersect the expanded constraints (the
  // driver first) and verify the rest by reachability probes.
  RunChunked(pool, nrows, chunk, [&](unsigned, size_t c, size_t begin,
                                     size_t end) {
    ChunkOut& part = parts[c];
    part.kept.resize(new_pending.size());
    GraphCodeRecord rx, ry;
    std::vector<uint32_t> out_buf, tmp_buf;
    std::vector<SortedSetView> views;
    std::vector<size_t> probe_idx;
    for (size_t r = begin; r < end; ++r) {
      const uint8_t driver = part.driver[r - begin];
      if (driver == kDropped) continue;
      const uint32_t* entry = &part.entry[(r - begin) * k];
      const Expansion& d = part.pools[driver][entry[driver]];
      views.clear();
      probe_idx.clear();
      views.push_back(d.View());
      for (size_t i = 0; i < k; ++i) {
        if (i == driver) continue;
        const Expansion& ent = part.pools[i][entry[i]];
        if (ent.expanded) {
          views.push_back(ent.View());
        } else {
          probe_idx.push_back(i);
        }
      }

      const uint32_t* cand = nullptr;
      size_t ncand = 0;
      if (views.size() == 1) {
        cand = d.values.data();
        ncand = d.values.size();
      } else {
        const size_t need = d.values.size() + kIntersectPad;
        if (out_buf.size() < need) out_buf.resize(need);
        if (tmp_buf.size() < need) tmp_buf.resize(need);
        ncand = IntersectKWayU32(views.data(), views.size(), out_buf.data(),
                                 tmp_buf.data(), &part.kway);
        cand = out_buf.data();
      }
      if (ncand == 0) {
        ++part.rows_pruned;
        continue;
      }

      for (size_t j = 0; j < ncand; ++j) {
        const NodeId v = cand[j];
        bool pass = true;
        for (size_t i : probe_idx) {
          const NodeId bound_node =
              chained ? colv[i][r] : rows[r * ncols + ctx[i].col];
          const NodeId u = ctx[i].forward ? bound_node : v;
          const NodeId w2 = ctx[i].forward ? v : bound_node;
          const LabelId ul = ctx[i].forward ? ctx[i].col_label : new_label;
          const LabelId wl = ctx[i].forward ? new_label : ctx[i].col_label;
          Result<bool> reachable =
              ProbeReach(db, u, ul, w2, wl, &rx, &ry, &part.code_fetches);
          if (!reachable.ok()) {
            errs[c] = reachable.status();
            return;
          }
          if (!*reachable) {
            pass = false;
            break;
          }
        }
        if (!pass) {
          ++part.reach_pruned;
          continue;
        }
        part.parent.push_back(static_cast<uint32_t>(r));
        part.value.push_back(v);
        for (size_t s = 0; s < new_pending.size(); ++s) {
          part.kept[s].push_back(table->pending()[s].row_index[r]);
        }
      }
    }
    part.pools.clear();
    part.pools.shrink_to_fit();
  });
  FGPM_RETURN_IF_ERROR(FirstError(errs));

  size_t out_rows = 0;
  for (const ChunkOut& part : parts) {
    out_rows += part.parent.size();
    stats->rows_scanned += part.rows_scanned;
    stats->rows_pruned += part.rows_pruned;
    stats->code_fetches += part.code_fetches;
    stats->pairs_emitted += part.pairs_emitted;
    stats->kway_intersect_probes += part.kway.probes;
    stats->kway_intersect_hits += part.kway.hits;
    stats->wcoj_reach_pruned += part.reach_pruned;
  }

  for (auto& slot : new_pending) slot.row_index.reserve(out_rows);
  TemporalTable::DeltaColumn& d = table->AddDeltaColumn(new_node);
  d.parent.reserve(out_rows);
  d.value.reserve(out_rows);
  for (ChunkOut& part : parts) {
    d.parent.insert(d.parent.end(), part.parent.begin(), part.parent.end());
    d.value.insert(d.value.end(), part.value.begin(), part.value.end());
    for (size_t s = 0; s < new_pending.size(); ++s) {
      new_pending[s].row_index.insert(new_pending[s].row_index.end(),
                                      part.kept[s].begin(),
                                      part.kept[s].end());
    }
  }
  stats->copy_bytes_avoided += out_rows * ((ncols + 1) * 4 - 8);
  table->pending() = std::move(new_pending);
  ExtendSortOrder(table, ncols);
  stats->temporal_pages_written += TemporalTablePages(*table);
  return Status::OK();
}

}  // namespace

Status ApplyWcojBind(const GraphDatabase& db, const Pattern& pattern,
                     const std::vector<LabelId>& node_labels,
                     const PlanStep& step, TemporalTable* table,
                     OperatorStats* stats, ThreadPool* pool) {
  OperatorStats local;
  return FoldStats(ApplyWcojBindImpl(db, pattern, node_labels, step, table,
                                     &local, pool),
                   stats, local);
}

}  // namespace fgpm
