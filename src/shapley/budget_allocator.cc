#include "shapley/budget_allocator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace comfedsv {

double WelfordStat::StdDev() const { return std::sqrt(Variance()); }

AdaptiveBudgetAllocator::AdaptiveBudgetAllocator(int num_cells,
                                                 int min_cell_samples)
    : cells_(static_cast<size_t>(num_cells)),
      min_cell_samples_(min_cell_samples) {
  COMFEDSV_CHECK_GT(num_cells, 0);
  COMFEDSV_CHECK_GE(min_cell_samples, 1);
}

void AdaptiveBudgetAllocator::Record(int cell, double value) {
  COMFEDSV_CHECK_GE(cell, 0);
  COMFEDSV_CHECK_LT(static_cast<size_t>(cell), cells_.size());
  cells_[static_cast<size_t>(cell)].Add(value);
  ++total_samples_;
}

const WelfordStat& AdaptiveBudgetAllocator::cell(int index) const {
  COMFEDSV_CHECK_GE(index, 0);
  COMFEDSV_CHECK_LT(static_cast<size_t>(index), cells_.size());
  return cells_[static_cast<size_t>(index)];
}

std::vector<int> AdaptiveBudgetAllocator::PlanWave(int wave_budget) const {
  std::vector<int> plan(cells_.size(), 0);
  if (wave_budget <= 0) return plan;
  int remaining = wave_budget;

  // Top-up pass: variance is not trustworthy below min_cell_samples, so
  // under-sampled cells come first. Breadth-first by level — every cell
  // reaches one sample before any cell gets its second — so a budget
  // smaller than the cell count maximizes coverage instead of piling
  // onto a prefix (never an over-spend, never a deadlock).
  for (int level = 1; level <= min_cell_samples_ && remaining > 0;
       ++level) {
    for (size_t h = 0; h < cells_.size() && remaining > 0; ++h) {
      if (cells_[h].count + plan[h] < level) {
        plan[h] += 1;
        --remaining;
      }
    }
  }
  if (remaining == 0) return plan;

  // Neyman pass: optimum allocation for equally weighted strata puts
  // samples proportional to each stratum's standard deviation. Weights
  // come from the recorded stats only, so the plan is a deterministic
  // function of (samples so far, wave budget).
  std::vector<double> weight(cells_.size(), 0.0);
  double weight_sum = 0.0;
  for (size_t h = 0; h < cells_.size(); ++h) {
    weight[h] = cells_[h].StdDev();
    weight_sum += weight[h];
  }
  // Exploration floor: a cell whose few samples happened to coincide
  // reports a sample deviation of zero, but that is weak evidence of
  // determinism — starving it forever would freeze its contribution to
  // the estimator variance at the top-up level no matter how large the
  // total budget grows. A floor of a fraction of the mean deviation
  // keeps every cell's sample count growing linearly with budget
  // (so the estimate still converges) while spending most of each wave
  // on the cells with demonstrated variance.
  if (weight_sum > 0.0) {
    const double floor =
        0.25 * weight_sum / static_cast<double>(cells_.size());
    weight_sum = 0.0;
    for (size_t h = 0; h < cells_.size(); ++h) {
      weight[h] += floor;
      weight_sum += weight[h];
    }
  }
  if (weight_sum <= 0.0) {
    // Every known cell looks deterministic: spread evenly (uniform
    // weights through the same largest-remainder rounding below) rather
    // than starving the wave — two samples per cell is not proof of
    // constancy.
    std::fill(weight.begin(), weight.end(), 1.0);
    weight_sum = static_cast<double>(weight.size());
  }

  // Largest-remainder rounding: floor the proportional shares, then hand
  // the leftover samples to the largest fractional remainders, breaking
  // ties toward the lower cell index.
  std::vector<double> share(cells_.size(), 0.0);
  int floored_total = 0;
  for (size_t h = 0; h < cells_.size(); ++h) {
    share[h] = static_cast<double>(remaining) * weight[h] / weight_sum;
    const int fl = static_cast<int>(std::floor(share[h]));
    plan[h] += fl;
    share[h] -= fl;
    floored_total += fl;
  }
  int leftover = remaining - floored_total;
  std::vector<size_t> order(cells_.size());
  for (size_t h = 0; h < order.size(); ++h) order[h] = h;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return share[a] > share[b];
  });
  for (size_t k = 0; k < order.size() && leftover > 0; ++k) {
    plan[order[k]] += 1;
    --leftover;
  }
  return plan;
}

}  // namespace comfedsv
