#include "exec/batch.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "exec/temporal_table.h"

namespace fgpm {

namespace {

constexpr uint32_t kNoEdge = ~0u;

// How many leading plan steps the seed covers, and the signature under
// which openings collide (see batch.h). seed_steps == 0 means the plan
// has no steps (single-label patterns are handled before grouping).
struct Opening {
  size_t seed_steps = 0;
  std::string sig;
};

Opening ClassifyOpening(const BatchQuery& q) {
  Opening o;
  const std::vector<PlanStep>& steps = q.plan->steps;
  if (steps.empty()) return o;
  const PlanStep& s0 = steps[0];
  if (s0.kind == StepKind::kScanBase) {
    o.seed_steps = 1;
    o.sig = "S|" + std::to_string(q.node_labels[s0.scan_node]);
    if (steps.size() > 1 && steps[1].kind == StepKind::kFilter) {
      o.seed_steps = 2;
      // The multiset of (other-endpoint label, direction) — sorted so
      // filter-item order never splits a group. Filters always carry at
      // least one item, so scan-only and scan+filter sigs stay distinct.
      std::vector<std::pair<LabelId, char>> items;
      items.reserve(steps[1].filters.size());
      for (const FilterItem& it : steps[1].filters) {
        const PatternEdge& e = q.pattern->edges()[it.edge];
        const PatternNodeId other = it.bound_is_source ? e.to : e.from;
        items.emplace_back(q.node_labels[other],
                           it.bound_is_source ? '>' : '<');
      }
      std::sort(items.begin(), items.end());
      for (const auto& [label, dir] : items) {
        o.sig += "|" + std::to_string(label) + dir;
      }
    }
  } else if (s0.kind == StepKind::kHpsjBase) {
    const PatternEdge& e = q.pattern->edges()[s0.edge];
    o.seed_steps = 1;
    o.sig = "H|" + std::to_string(q.node_labels[e.from]) + "|" +
            std::to_string(q.node_labels[e.to]);
  }
  return o;
}

// Runs the leader's seed steps into `seed` with intra-query parallelism.
Status BuildSeed(const GraphDatabase& db, const BatchQuery& leader,
                 size_t seed_steps, ThreadPool* pool, ExecScratch* scratch,
                 TemporalTable* seed, OperatorStats* stats) {
  for (size_t si = 0; si < seed_steps; ++si) {
    const PlanStep& step = leader.plan->steps[si];
    switch (step.kind) {
      case StepKind::kScanBase:
        FGPM_RETURN_IF_ERROR(ScanBase(db, *leader.pattern,
                                      leader.node_labels, step.scan_node,
                                      seed, stats));
        break;
      case StepKind::kFilter:
        FGPM_RETURN_IF_ERROR(ApplyFilter(db, *leader.pattern,
                                         leader.node_labels, step.filters,
                                         seed, stats, pool, scratch));
        break;
      case StepKind::kHpsjBase:
        FGPM_RETURN_IF_ERROR(HpsjBaseJoin(db, *leader.pattern,
                                          leader.node_labels, step.edge,
                                          seed, stats, pool, scratch));
        break;
      default:
        return Status::Internal("unshareable step classified as seed");
    }
  }
  return Status::OK();
}

// Copies `seed` into `member`'s coordinates: schema nodes map by label
// identity, pending slots map to the member edge with the same
// (bound label, other label, direction) — unique because patterns
// reject duplicate edges.
Status TranslateSeed(const TemporalTable& seed, const BatchQuery& leader,
                     const BatchQuery& member, TemporalTable* out) {
  std::unordered_map<LabelId, PatternNodeId> member_node_of;
  for (PatternNodeId i = 0; i < member.pattern->num_nodes(); ++i) {
    member_node_of[member.node_labels[i]] = i;
  }
  for (PatternNodeId node : seed.schema()) {
    auto it = member_node_of.find(leader.node_labels[node]);
    if (it == member_node_of.end()) {
      return Status::Internal("seed schema label missing from batch member");
    }
    out->AddColumn(it->second);
  }
  out->raw_rows() = seed.raw_rows();
  out->set_sorted_by(seed.sorted_by());
  for (const TemporalTable::PendingSlot& slot : seed.pending()) {
    const PatternEdge& le = leader.pattern->edges()[slot.edge];
    const LabelId bound_label =
        leader.node_labels[slot.bound_is_source ? le.from : le.to];
    const LabelId other_label =
        leader.node_labels[slot.bound_is_source ? le.to : le.from];
    uint32_t medge = kNoEdge;
    for (uint32_t i = 0; i < member.pattern->num_edges(); ++i) {
      const PatternEdge& me = member.pattern->edges()[i];
      const LabelId mb =
          member.node_labels[slot.bound_is_source ? me.from : me.to];
      const LabelId mo =
          member.node_labels[slot.bound_is_source ? me.to : me.from];
      if (mb == bound_label && mo == other_label) {
        medge = i;
        break;
      }
    }
    if (medge == kNoEdge) {
      return Status::Internal("pending seed edge missing from batch member");
    }
    out->pending().push_back(
        {medge, slot.bound_is_source, slot.pool, slot.row_index});
  }
  return Status::OK();
}

}  // namespace

Status ExecuteBatch(const GraphDatabase& db,
                    const std::vector<BatchQuery>& queries,
                    ThreadPool* pool,
                    BatchScratch* scratch, ExecScratch* seed_scratch,
                    std::vector<MatchResult>* results, BatchExecStats* stats) {
  results->assign(queries.size(), MatchResult{});

  // Group shareable openings; trivial queries resolve inline.
  std::vector<std::string> group_order;
  std::unordered_map<std::string, std::vector<size_t>> groups;
  std::vector<size_t> seed_steps_of(queries.size(), 0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const BatchQuery& q = queries[qi];
    FGPM_CHECK(q.pattern != nullptr && q.plan != nullptr);
    MatchResult& res = (*results)[qi];
    for (PatternNodeId i = 0; i < q.pattern->num_nodes(); ++i) {
      res.column_labels.push_back(q.pattern->label(i));
    }
    if (!q.resolvable) continue;  // empty result by definition
    if (q.pattern->num_edges() == 0) {
      WallTimer t;
      FGPM_RETURN_IF_ERROR(
          db.table(q.node_labels[0]).Scan([&](const GraphCodeRecord& rec) {
            res.rows.push_back({rec.node});
          }));
      res.stats.result_rows = res.rows.size();
      res.stats.elapsed_ms = t.ElapsedMillis();
      continue;
    }
    Opening o = ClassifyOpening(q);
    if (o.seed_steps == 0) {
      return Status::InvalidArgument("plan with no shareable opening step");
    }
    seed_steps_of[qi] = o.seed_steps;
    auto [it, inserted] = groups.try_emplace(o.sig);
    if (inserted) group_order.push_back(o.sig);
    it->second.push_back(qi);
  }

  // One scratch per batch worker: each pipeline tail runs single-
  // threaded inside the fan-out, so every tail needs a private
  // one-worker memo set (the seed build uses the borrowed multi-worker
  // scratch). Configuring these allocates memo tables — reuse the
  // caller's BatchScratch when given (Configure is an O(1) epoch clear
  // then) and borrow the caller's executor scratch for seeds.
  const unsigned workers = pool != nullptr ? pool->size() : 1;
  BatchScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  scratch->Configure(workers, db.options().reach_cache_entries);
  std::vector<ExecScratch>& tail_scratch = scratch->tails;
  ExecScratch local_seed_scratch;
  if (seed_scratch == nullptr) {
    local_seed_scratch.Configure(workers, db.options().reach_cache_entries);
    seed_scratch = &local_seed_scratch;
  }

  for (const std::string& sig : group_order) {
    const std::vector<size_t>& members = groups[sig];
    const size_t leader_qi = members[0];
    const BatchQuery& leader = queries[leader_qi];
    const size_t seed_steps = seed_steps_of[leader_qi];

    WallTimer seed_timer;
    TemporalTable seed;
    OperatorStats seed_stats;
    seed_scratch->BeginQuery();
    FGPM_RETURN_IF_ERROR(BuildSeed(db, leader, seed_steps, pool,
                                   seed_scratch, &seed, &seed_stats));
    const double seed_ms = seed_timer.ElapsedMillis();

    if (stats != nullptr && members.size() > 1) {
      ++stats->shared_seed_groups;
      stats->shared_seed_reuses += members.size() - 1;
    }

    std::vector<Status> errs(members.size());
    auto run_member = [&](unsigned wk, size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const size_t qi = members[i];
        const BatchQuery& q = queries[qi];
        MatchResult& res = (*results)[qi];
        WallTimer t;
        TemporalTable table;
        Status s = TranslateSeed(seed, leader, q, &table);
        if (s.ok()) {
          ExecScratch& scr = tail_scratch[wk < workers ? wk : 0];
          scr.BeginQuery();
          uint64_t wcoj_binds = 0;
          s = RunPlanSteps(db, *q.pattern, q.node_labels, *q.plan,
                           seed_steps, &table, &res.stats,
                           /*trace=*/nullptr, /*query_span=*/0,
                           /*pool=*/nullptr, &scr, &wcoj_binds);
        }
        if (s.ok()) MaterializeTable(*q.pattern, table, &res);
        res.stats.result_rows = res.rows.size();
        res.stats.elapsed_ms += t.ElapsedMillis();
        errs[i] = std::move(s);
      }
    };
    if (pool != nullptr && members.size() > 1) {
      pool->ParallelFor(members.size(), 1, run_member);
    } else {
      run_member(0, 0, 0, members.size());
    }
    for (const Status& s : errs) FGPM_RETURN_IF_ERROR(s);

    // The shared work happened once; charge it to the leader (charging
    // every member would double-count the batch's aggregate counters).
    MatchResult& leader_res = (*results)[leader_qi];
    leader_res.stats.operators.Add(seed_stats);
    leader_res.stats.elapsed_ms += seed_ms;
  }
  return Status::OK();
}

}  // namespace fgpm
