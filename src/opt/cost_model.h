// Cost model and cardinality estimation for R-join / R-semijoin plans
// (Section 4, Table 1, Eqs. 10-12).
//
// Cardinalities use the catalog's per-label-pair statistics:
//   |T_X join T_Y|                      -> PairStats::est_pairs
//   sel(X,Y) = |TX join TY| / (|TX||TY|)  (Eq. 10, the select step)
//   |T_RS| = |T_R| * |TX join TY| / |T_bound|   (Eqs. 11/12, fetch fanout)
// R-semijoin survival uses the independence estimate
//   min(1, |TX join TY| / |T_bound|).
//
// I/O costs are expressed in page units:
//   IO_W   — one W-table B+-tree probe
//   IO_B   — one graph-code retrieval (primary index descent + heap page)
//   IO_F/IO_T — pages per F-/T-subcluster access (catalog averages)
//   IO_S   — scanning one heap page
#ifndef FGPM_OPT_COST_MODEL_H_
#define FGPM_OPT_COST_MODEL_H_

#include "gdb/catalog.h"

namespace fgpm {

struct CostParams {
  double io_wtable_probe = 2.0;   // IO_W
  double io_code_probe = 3.0;     // IO_B: B+-tree descent + heap page
  double io_page_scan = 1.0;      // IO_S
  double cpu_per_tuple = 0.001;   // charge for producing an output tuple
  // Charge per NodeId copied when an operator (re)writes its output
  // rows into temporal storage. A step writing R full-width rows of
  // width W copies R*W ids; a factorized fetch writes only the
  // (parent, value) delta pair regardless of W.
  double cpu_per_id_copy = 0.0002;
  // True charges fetches as delta-column appends, as the executor runs
  // them (GraphMatcher always plans this way), so DP/DPS stop
  // over-charging wide intermediates. False charges full-width row
  // writes, the paper's temporal-table model, which INT-DP's IGMJ
  // really executes.
  bool factorized = false;
  // WCOJ vertex binds: CPU charged per driver candidate tested against
  // another constraint set (the k-way intersection / reach probes), and
  // the expected fraction of per-row expansion work that misses the
  // chunk-local expansion memo (rows repeating a bound node share one
  // code probe + cluster expansion).
  double cpu_per_intersect_probe = 0.0002;
  double wcoj_memo_miss = 0.25;
  // Result-cache replay: scale on the per-row residual-edge probe
  // charge. An unfitted constant: replay probes are not memoized, so
  // every row pays its probes; the value stays so replay-vs-recompute
  // decisions do not move until cost calibration fits it.
  double replay_memo_miss = 0.25;
};

class CostModel {
 public:
  explicit CostModel(const Catalog* catalog, CostParams params = {})
      : catalog_(catalog), params_(params) {}

  const CostParams& params() const { return params_; }

  // --- cardinalities ------------------------------------------------------
  double BaseJoinSize(LabelId x, LabelId y) const;
  // Eq. 10: fraction of rows surviving a select on X->Y.
  double SelectSelectivity(LabelId x, LabelId y) const;
  // Eqs. 11/12: per-row fanout of the full R-join toward the unbound side.
  double ExtendFanout(LabelId x, LabelId y, bool bound_is_source) const;
  // Fraction of rows surviving the R-semijoin (Filter) on the bound side.
  double SemijoinSurvival(LabelId x, LabelId y, bool bound_is_source) const;
  // Expected |X_i| — centers attached to a surviving row by Filter.
  double AvgCentersPerRow(LabelId x, LabelId y, bool bound_is_source) const;

  // --- step costs (page units) -------------------------------------------
  double HpsjBaseCost(LabelId x, LabelId y) const;
  double ScanBaseCost(LabelId x) const;
  // Filter scanning `rows` temporal rows with `distinct_columns` probed
  // columns and `num_edges` semijoins (shared scan, Remark 3.1).
  double FilterCost(double rows, int distinct_columns, int num_edges) const;
  // Fetch expanding `rows` filtered rows for edge X->Y.
  double FetchCost(double rows, LabelId x, LabelId y,
                   bool bound_is_source) const;
  double SelectCost(double rows) const;
  // WCOJ bind of one vertex over k constraint edges, driven by the
  // cheapest constraint (labels dx -> dy, driver_forward: the bound
  // endpoint is the edge source). Per row: k memo-discounted code
  // probes, the driver expansion's cluster pages, one intersection
  // probe per driver candidate per other constraint, plus the output
  // tuples.
  double WcojBindCost(double rows, int k, LabelId dx, LabelId dy,
                      bool driver_forward, double rows_out) const;
  // Cost of writing a step's output rows at `width` bound columns into
  // temporal storage. Factorized tables write at most 2 ids per row
  // (the delta pair) however wide the logical row is.
  double MaterializeCost(double rows, int width) const;
  // Cost of answering a query by filtering `rows` cached result rows of
  // `arity` columns down through `residual_edges` per-row reachability
  // probes (result-cache containment replay, each probe scaled by
  // replay_memo_miss). Compared against a fresh plan's estimated_cost to
  // decide replay vs recompute.
  double ReplayCost(double rows, int arity, int residual_edges) const;

 private:
  const Catalog* catalog_;
  CostParams params_;
};

}  // namespace fgpm

#endif  // FGPM_OPT_COST_MODEL_H_
