#include "opt/cost_model.h"

#include <algorithm>

namespace fgpm {

double CostModel::BaseJoinSize(LabelId x, LabelId y) const {
  return static_cast<double>(catalog_->Stats(x, y).est_pairs);
}

double CostModel::SelectSelectivity(LabelId x, LabelId y) const {
  return catalog_->Selectivity(x, y);
}

double CostModel::ExtendFanout(LabelId x, LabelId y,
                               bool bound_is_source) const {
  uint64_t bound_extent =
      bound_is_source ? catalog_->ExtentSize(x) : catalog_->ExtentSize(y);
  if (bound_extent == 0) return 0.0;
  return BaseJoinSize(x, y) / static_cast<double>(bound_extent);
}

double CostModel::SemijoinSurvival(LabelId x, LabelId y,
                                   bool bound_is_source) const {
  return std::min(1.0, ExtendFanout(x, y, bound_is_source));
}

double CostModel::AvgCentersPerRow(LabelId x, LabelId y,
                                   bool bound_is_source) const {
  const PairStats& ps = catalog_->Stats(x, y);
  uint64_t bound_extent =
      bound_is_source ? catalog_->ExtentSize(x) : catalog_->ExtentSize(y);
  if (bound_extent == 0) return 0.0;
  // Each center contributes its bound-side subcluster memberships.
  uint64_t sum = bound_is_source ? ps.sum_f : ps.sum_t;
  double avg = static_cast<double>(sum) / static_cast<double>(bound_extent);
  return std::max(avg, ps.num_centers > 0 ? 1.0 : 0.0);
}

double CostModel::HpsjBaseCost(LabelId x, LabelId y) const {
  const PairStats& ps = catalog_->Stats(x, y);
  double cluster_pages =
      ps.num_centers * (ps.avg_f_pages + ps.avg_t_pages) * params_.io_page_scan;
  return params_.io_wtable_probe + cluster_pages +
         BaseJoinSize(x, y) * params_.cpu_per_tuple;
}

double CostModel::ScanBaseCost(LabelId x) const {
  return static_cast<double>(catalog_->TablePages(x)) * params_.io_page_scan;
}

double CostModel::FilterCost(double rows, int distinct_columns,
                             int num_edges) const {
  // One W-table probe per semijoin; one graph-code retrieval per row per
  // distinct probed column (this is what a shared scan saves).
  return params_.io_wtable_probe * num_edges +
         rows * params_.io_code_probe * distinct_columns;
}

double CostModel::FetchCost(double rows, LabelId x, LabelId y,
                            bool bound_is_source) const {
  const PairStats& ps = catalog_->Stats(x, y);
  double per_center_pages =
      (bound_is_source ? ps.avg_t_pages : ps.avg_f_pages) *
      params_.io_page_scan;
  double centers = AvgCentersPerRow(x, y, bound_is_source);
  double out_rows = rows * std::max(
      1.0, ExtendFanout(x, y, bound_is_source) /
               std::max(1e-12, SemijoinSurvival(x, y, bound_is_source)));
  return rows * centers * per_center_pages + out_rows * params_.cpu_per_tuple;
}

double CostModel::SelectCost(double rows) const {
  return rows * 2.0 * params_.io_code_probe;
}

double CostModel::WcojBindCost(double rows, int k, LabelId dx, LabelId dy,
                               bool driver_forward, double rows_out) const {
  const PairStats& ps = catalog_->Stats(dx, dy);
  const double per_center_pages =
      (driver_forward ? ps.avg_t_pages : ps.avg_f_pages) *
      params_.io_page_scan;
  const double centers = AvgCentersPerRow(dx, dy, driver_forward);
  const double fanout = ExtendFanout(dx, dy, driver_forward);
  const double code_io =
      rows * params_.io_code_probe * k * params_.wcoj_memo_miss;
  const double expand_io =
      rows * centers * per_center_pages * params_.wcoj_memo_miss;
  const double intersect = rows * fanout * std::max(0, k - 1) *
                           params_.cpu_per_intersect_probe;
  return code_io + expand_io + intersect + rows_out * params_.cpu_per_tuple;
}

double CostModel::MaterializeCost(double rows, int width) const {
  double ids = params_.factorized ? std::min(width, 2) : width;
  return rows * ids * params_.cpu_per_id_copy;
}

double CostModel::ReplayCost(double rows, int arity, int residual_edges) const {
  // Per row: copy the full-width tuple out of the cached block, plus a
  // select-equivalent probe (two code fetches + one intersection) per
  // residual edge, scaled by replay_memo_miss.
  return rows * arity * params_.cpu_per_id_copy +
         residual_edges * params_.replay_memo_miss * SelectCost(rows);
}

}  // namespace fgpm
