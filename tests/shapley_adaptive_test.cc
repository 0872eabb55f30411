// Adaptive-budget estimator tests: WelfordStat numerics, the
// allocator's deterministic wave planning (top-up priority, Neyman
// split, largest-remainder rounding, degenerate budgets), checkpoint
// restore validation, and the adaptive MonteCarloShapley path
// (exactness on additive games, convergence on synergy games, the
// small-budget fallback, and single-player safety).
#include "shapley/budget_allocator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "shapley/shapley.h"

namespace comfedsv {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

UtilityFn AdditiveGame(const std::vector<double>& weights) {
  return [weights](const Coalition& c) {
    double total = 0.0;
    for (int m : c.Members()) total += weights[m];
    return total;
  };
}

TEST(WelfordStatTest, MatchesClosedFormMeanAndSampleVariance) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  WelfordStat stat;
  for (double x : xs) stat.Add(x);

  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double m2 = 0.0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  const double variance = m2 / static_cast<double>(xs.size() - 1);

  EXPECT_EQ(stat.count, static_cast<int64_t>(xs.size()));
  EXPECT_NEAR(stat.mean, mean, 1e-12);
  EXPECT_NEAR(stat.Variance(), variance, 1e-12);
  EXPECT_NEAR(stat.StdDev(), std::sqrt(variance), 1e-12);
}

TEST(WelfordStatTest, VarianceIsZeroBelowTwoSamples) {
  WelfordStat stat;
  EXPECT_EQ(stat.Variance(), 0.0);
  stat.Add(3.5);
  EXPECT_EQ(stat.Variance(), 0.0);
  EXPECT_EQ(stat.StdDev(), 0.0);
}

TEST(AdaptiveBudgetAllocatorTest, ZeroAndNegativeBudgetsPlanNothing) {
  AdaptiveBudgetAllocator alloc(4, /*min_cell_samples=*/2);
  for (int budget : {0, -1, -100}) {
    const std::vector<int> plan = alloc.PlanWave(budget);
    ASSERT_EQ(plan.size(), 4u);
    for (int p : plan) EXPECT_EQ(p, 0);
  }
}

TEST(AdaptiveBudgetAllocatorTest, BudgetSmallerThanStrataTopsUpInOrder) {
  // 5 empty cells, budget 3: the top-up pass hands one sample each to
  // the lowest-index cells and stops when the budget runs out.
  AdaptiveBudgetAllocator alloc(5, /*min_cell_samples=*/2);
  const std::vector<int> plan = alloc.PlanWave(3);
  EXPECT_EQ(plan, (std::vector<int>{1, 1, 1, 0, 0}));
  int total = 0;
  for (int p : plan) total += p;
  EXPECT_EQ(total, 3);
}

TEST(AdaptiveBudgetAllocatorTest, BudgetOfOneIsSafeOnSingleCell) {
  AdaptiveBudgetAllocator alloc(1, /*min_cell_samples=*/2);
  EXPECT_EQ(alloc.PlanWave(1), (std::vector<int>{1}));
  alloc.Record(0, 1.0);
  alloc.Record(0, 1.0);
  // Fully topped up, zero variance: even-spread fallback gets the rest.
  EXPECT_EQ(alloc.PlanWave(1), (std::vector<int>{1}));
}

TEST(AdaptiveBudgetAllocatorTest, NeymanSplitFollowsStdDev) {
  // Cell 0: high variance; cell 1: low variance; cell 2: zero variance.
  AdaptiveBudgetAllocator alloc(3, /*min_cell_samples=*/2);
  alloc.Record(0, 0.0);
  alloc.Record(0, 10.0);  // sd = sqrt(50)
  alloc.Record(1, 0.0);
  alloc.Record(1, 1.0);  // sd = sqrt(0.5)
  alloc.Record(2, 4.0);
  alloc.Record(2, 4.0);  // sd = 0

  const std::vector<int> plan = alloc.PlanWave(10);
  int total = 0;
  for (int p : plan) total += p;
  EXPECT_EQ(total, 10);
  // sqrt(50)/sqrt(0.5) = 10, so the high-variance cell dominates; the
  // zero-variance cell keeps only the exploration-floor trickle.
  EXPECT_GT(plan[0], plan[1]);
  EXPECT_GE(plan[1], plan[2]);
  EXPECT_LE(plan[2], 1);
  EXPECT_GE(plan[0], 8);
}

TEST(AdaptiveBudgetAllocatorTest, TopUpTakesPriorityOverNeyman) {
  // Cell 1 is still below min_cell_samples; it must be topped up before
  // the variance split even though cell 0 has all the variance.
  AdaptiveBudgetAllocator alloc(2, /*min_cell_samples=*/2);
  alloc.Record(0, 0.0);
  alloc.Record(0, 100.0);
  alloc.Record(1, 5.0);

  const std::vector<int> plan = alloc.PlanWave(4);
  EXPECT_GE(plan[1], 1);
  int total = 0;
  for (int p : plan) total += p;
  EXPECT_EQ(total, 4);
}

TEST(AdaptiveBudgetAllocatorTest, AllZeroVarianceSpreadsEvenly) {
  AdaptiveBudgetAllocator alloc(4, /*min_cell_samples=*/1);
  for (int c = 0; c < 4; ++c) {
    alloc.Record(c, 2.0);
    alloc.Record(c, 2.0);
  }
  const std::vector<int> plan = alloc.PlanWave(6);
  // 6 over 4 cells: even spread gives {2, 2, 1, 1} (remainder to the
  // lower indices).
  EXPECT_EQ(plan, (std::vector<int>{2, 2, 1, 1}));
}

TEST(AdaptiveBudgetAllocatorTest, PlanIsDeterministicAndPure) {
  AdaptiveBudgetAllocator alloc(6, /*min_cell_samples=*/2);
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    alloc.Record(rng.NextInt(0, 5), rng.NextDouble());
  }
  const std::vector<int> first = alloc.PlanWave(17);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(alloc.PlanWave(17), first);
  }
}

TEST(AdaptiveMonteCarloTest, ExactOnAdditiveGames) {
  // Additive games have zero within-cell variance, so any allocation
  // (pilot alone included) recovers the weights exactly.
  const std::vector<double> weights = {0.5, -1.0, 2.0, 0.0, 3.25};
  const int m = static_cast<int>(weights.size());
  SamplerConfig cfg;
  cfg.adaptive.enabled = true;
  Rng rng(11);
  Result<Vector> got = MonteCarloShapley(m, Iota(m), AdditiveGame(weights),
                                         /*num_permutations=*/4 * m, &rng,
                                         nullptr, nullptr, cfg);
  ASSERT_TRUE(got.ok()) << got.status().message();
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(got.value()[i], weights[i], 1e-9) << "player " << i;
  }
}

TEST(AdaptiveMonteCarloTest, ConvergesToExactOnSynergyGame) {
  // A game with pairwise synergy so cells carry real variance.
  const int m = 6;
  UtilityFn game = [](const Coalition& c) {
    const auto& members = c.Members();
    double v = 0.0;
    for (int p : members) v += 0.3 * (p + 1);
    v += 0.5 * static_cast<double>(members.size() * members.size());
    return v;
  };
  Result<Vector> exact = ExactShapley(m, Iota(m), game);
  ASSERT_TRUE(exact.ok());

  SamplerConfig cfg;
  cfg.adaptive.enabled = true;
  Rng rng(123);
  Result<Vector> got = MonteCarloShapley(m, Iota(m), game,
                                         /*num_permutations=*/400, &rng,
                                         nullptr, nullptr, cfg);
  ASSERT_TRUE(got.ok());
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(got.value()[i], exact.value()[i], 0.15) << "player " << i;
  }
}

TEST(AdaptiveMonteCarloTest, SmallBudgetFallsBackToPlainSampler) {
  // Below 2*m permutations the adaptive branch must reproduce the plain
  // sampler draw-for-draw (same rng consumption).
  const int m = 5;
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 5.0};
  SamplerConfig plain;
  SamplerConfig adaptive;
  adaptive.adaptive.enabled = true;

  Rng rng_plain(42);
  Rng rng_adaptive(42);
  Result<Vector> a =
      MonteCarloShapley(m, Iota(m), AdditiveGame(weights), /*perms=*/m,
                        &rng_plain, nullptr, nullptr, plain);
  Result<Vector> b =
      MonteCarloShapley(m, Iota(m), AdditiveGame(weights), /*perms=*/m,
                        &rng_adaptive, nullptr, nullptr, adaptive);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < m; ++i) {
    EXPECT_EQ(a.value()[i], b.value()[i]) << "player " << i;
  }
}

TEST(AdaptiveMonteCarloTest, SinglePlayerGameDoesNotCrash) {
  SamplerConfig cfg;
  cfg.adaptive.enabled = true;
  Rng rng(3);
  Result<Vector> got = MonteCarloShapley(
      1, {0}, AdditiveGame({7.5}), /*num_permutations=*/8, &rng, nullptr,
      nullptr, cfg);
  ASSERT_TRUE(got.ok());
  EXPECT_NEAR(got.value()[0], 7.5, 1e-12);
}

TEST(AdaptiveMonteCarloTest, SubsetOfUniversePlayersGetValuesOthersZero) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  SamplerConfig cfg;
  cfg.adaptive.enabled = true;
  Rng rng(17);
  const std::vector<int> players = {1, 3, 5};
  Result<Vector> got = MonteCarloShapley(6, players, AdditiveGame(weights),
                                         /*num_permutations=*/24, &rng,
                                         nullptr, nullptr, cfg);
  ASSERT_TRUE(got.ok());
  EXPECT_NEAR(got.value()[1], 2.0, 1e-9);
  EXPECT_NEAR(got.value()[3], 4.0, 1e-9);
  EXPECT_NEAR(got.value()[5], 6.0, 1e-9);
  EXPECT_EQ(got.value()[0], 0.0);
  EXPECT_EQ(got.value()[2], 0.0);
  EXPECT_EQ(got.value()[4], 0.0);
}

TEST(AdaptiveMonteCarloTest, InvalidAdaptiveKnobsAreRejected) {
  const std::vector<double> weights = {1.0, 2.0, 3.0};
  Rng rng(1);
  SamplerConfig cfg;
  cfg.adaptive.enabled = true;
  cfg.adaptive.waves = 0;
  EXPECT_FALSE(MonteCarloShapley(3, Iota(3), AdditiveGame(weights), 12,
                                 &rng, nullptr, nullptr, cfg)
                   .ok());
  cfg.adaptive.waves = 4;
  cfg.adaptive.min_cell_samples = 0;
  EXPECT_FALSE(MonteCarloShapley(3, Iota(3), AdditiveGame(weights), 12,
                                 &rng, nullptr, nullptr, cfg)
                   .ok());
  cfg.adaptive.min_cell_samples = 2;
  cfg.adaptive.pilot_permutations = -1;
  EXPECT_FALSE(MonteCarloShapley(3, Iota(3), AdditiveGame(weights), 12,
                                 &rng, nullptr, nullptr, cfg)
                   .ok());
}

}  // namespace
}  // namespace comfedsv
