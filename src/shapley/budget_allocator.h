// Adaptive permutation-budget allocation (the estimator tier of
// ROADMAP item 5, after the sampling-based-approximation survey,
// arXiv 2504.16668, and Castro et al.'s optimum stratified allocation).
//
// Every Monte-Carlo Shapley estimate averages marginal contributions,
// and the per-cell variance of those marginals is wildly heterogeneous:
// in a stratified decomposition by (player, coalition size), most cells
// of a realistic game are nearly deterministic (the additive part of the
// utility is constant within a cell) while a handful of synergy-carrying
// cells hold almost all of the estimator variance. Spending the
// permutation budget uniformly — what every PR-4 sampler does — wastes
// most of its loss calls re-measuring cells that were already settled
// after two samples.
//
// AdaptiveBudgetAllocator keeps running Welford mean/variance per cell
// and plans fixed-size waves of additional samples with a Neyman-style
// allocation: each wave first tops every under-sampled cell up to
// `min_cell_samples` (variance is meaningless before that), then splits
// the remainder proportionally to the cells' standard deviations
// (Neyman's optimum for equally weighted strata), rounding by largest
// remainder with index-order tie-breaks. Every decision is a pure
// function of the recorded samples and the wave budget, and callers
// record samples in a fixed sequential order — so allocation is
// bit-identical for any thread count (the determinism contract of
// tests/determinism_test.cc).
//
// The allocator is estimator-agnostic: MonteCarloShapley uses cells
// (player i, stratum |S| = s); FedSvEvaluator gets a fresh allocator per
// round (per-round, per-stratum stats).
#ifndef COMFEDSV_SHAPLEY_BUDGET_ALLOCATOR_H_
#define COMFEDSV_SHAPLEY_BUDGET_ALLOCATOR_H_

#include <cstdint>
#include <vector>

namespace comfedsv {

/// Numerically stable running mean/variance (Welford's algorithm).
struct WelfordStat {
  int64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the running mean

  void Add(double value) {
    ++count;
    const double delta = value - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (value - mean);
  }

  /// Sample variance; 0 until two samples exist.
  double Variance() const {
    return count > 1 ? m2 / static_cast<double>(count - 1) : 0.0;
  }
  double StdDev() const;
};

/// Knobs of the adaptive estimator (embedded in SamplerConfig).
struct AdaptiveBudgetConfig {
  /// Master switch: off reproduces the PR-4 samplers untouched.
  bool enabled = false;
  /// Full permutation walks spent on the pilot phase before the first
  /// reallocation wave; 0 = auto (max(2, budget / 8)).
  int pilot_permutations = 0;
  /// Number of fixed-size reallocation waves the post-pilot budget is
  /// split into. More waves react faster but re-plan more often.
  int waves = 4;
  /// Samples a cell needs before its variance is trusted; cells below
  /// this are topped up first in every wave plan.
  int min_cell_samples = 2;
};

/// Per-cell Welford statistics plus deterministic Neyman wave planning.
class AdaptiveBudgetAllocator {
 public:
  /// `num_cells` > 0 strata; `min_cell_samples` >= 1 is the trust floor
  /// used by PlanWave's top-up pass.
  AdaptiveBudgetAllocator(int num_cells, int min_cell_samples);

  /// Records one marginal-contribution sample for `cell`. Call in a
  /// deterministic order (the wave read-back order).
  void Record(int cell, double value);

  /// Plans the next wave: how many new samples each cell receives out of
  /// `wave_budget` (>= 0; 0 or negative plans nothing). Deterministic:
  /// (1) cells with fewer than `min_cell_samples` samples are topped up
  /// breadth-first (every cell reaches one sample before any gets its
  /// second, index order within a level) while budget lasts; (2) the
  /// remainder is split proportionally to cell standard deviations
  /// plus an exploration floor of a quarter of the mean deviation —
  /// observed-zero variance is weak evidence of determinism, so every
  /// cell's count keeps growing with budget (largest-remainder
  /// rounding, ties to the lower index); (3) if every known cell has
  /// zero variance the remainder is spread evenly instead. Never
  /// returns more than `wave_budget` total samples, so budgets smaller
  /// than the number of cells are safe (some cells simply get none).
  std::vector<int> PlanWave(int wave_budget) const;

  int num_cells() const { return static_cast<int>(cells_.size()); }
  const WelfordStat& cell(int index) const;
  int64_t total_samples() const { return total_samples_; }

 private:
  std::vector<WelfordStat> cells_;
  int min_cell_samples_;
  int64_t total_samples_ = 0;
};

}  // namespace comfedsv

#endif  // COMFEDSV_SHAPLEY_BUDGET_ALLOCATOR_H_
