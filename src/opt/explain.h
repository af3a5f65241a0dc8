// Plan explanation: replays the cost model (Section 4) over any valid
// plan, producing per-step cardinality and cost estimates — the EXPLAIN
// output of the engine. One implementation serves DP, DPS and canonical
// plans, so estimates are always comparable across optimizers.
#ifndef FGPM_OPT_EXPLAIN_H_
#define FGPM_OPT_EXPLAIN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/engine.h"
#include "exec/plan.h"
#include "gdb/catalog.h"
#include "opt/cost_model.h"
#include "query/pattern.h"

namespace fgpm {

struct StepEstimate {
  std::string description;   // e.g. "FETCH(C->D)"
  double rows_out = 0;        // estimated rows after the step
  double step_cost = 0;       // estimated cost of the step (page units)
  double cumulative_cost = 0;
  // WCOJ bind steps only: estimated surviving candidates per input row
  // (the k-way intersection size). ToStringWithActuals compares this
  // against the actual rows_out / rows_in ratio per bound vertex.
  double est_fanout = 0;
  bool is_bind = false;
};

struct PlanExplanation {
  std::vector<StepEstimate> steps;
  double total_cost = 0;
  double result_rows = 0;

  // Multi-line human-readable rendering.
  std::string ToString() const;

  // EXPLAIN ANALYZE rendering: estimates side by side with an execution
  // of the same plan — per-step estimated vs actual rows with the
  // cost-model error ratio (est/act, divide-guarded: "-" for steps the
  // execution never reached, "inf" when the model predicted survivors
  // but none materialized), per-step wall time (ExecStats::step_wall_ms;
  // a select absorbed into a fused fetch shows "[fused]" and "-" since
  // its time is inside the fetch's entry), followed by the
  // materialization / temporal-I/O and buffer-pool / code-cache
  // counters. Makes a plan regression diagnosable from one dump.
  std::string ToStringWithActuals(const ExecStats& stats) const;
};

// Requires plan.Validate(pattern).ok() and all pattern labels present in
// the catalog (missing labels yield zero estimates, not an error).
Result<PlanExplanation> ExplainPlan(const Pattern& pattern, const Plan& plan,
                                    const Catalog& catalog,
                                    CostParams params = {});

}  // namespace fgpm

#endif  // FGPM_OPT_EXPLAIN_H_
