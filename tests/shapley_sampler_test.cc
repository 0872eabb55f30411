// PermutationSampler tests: legacy-sequence conformance (the uniform
// mode must reproduce the pre-sampler draws bit for bit in both
// conventions), structural properties of antithetic pairs and stratified
// blocks, unbiasedness on closed-form games, and the truncated walk's
// tolerance / loss-call contract.
#include "shapley/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "shapley/shapley.h"

namespace comfedsv {
namespace {

UtilityFn AdditiveGame(const std::vector<double>& weights) {
  return [weights](const Coalition& c) {
    double total = 0.0;
    for (int m : c.Members()) total += weights[m];
    return total;
  };
}

// Wraps a game and counts utility evaluations (the loss-call analog).
struct CountingGame {
  UtilityFn game;
  int64_t evals = 0;
  UtilityFn Fn() {
    return [this](const Coalition& c) {
      ++evals;
      return game(c);
    };
  }
};

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(DrawOrderingsTest, UniformChainedMatchesLegacyMonteCarloDraws) {
  // MonteCarloShapley's historical convention: one working vector
  // re-shuffled in place per draw.
  const std::vector<int> players = {3, 1, 4, 0, 2};
  Rng legacy(42);
  std::vector<std::vector<int>> expected;
  std::vector<int> order(players);
  for (int s = 0; s < 6; ++s) {
    legacy.Shuffle(&order);
    expected.push_back(order);
  }

  Rng rng(42);
  SamplerConfig cfg;  // uniform
  std::vector<std::vector<int>> got =
      DrawOrderings(cfg, players, 6, &rng, /*reset_between_draws=*/false);
  EXPECT_EQ(got, expected);
}

TEST(DrawOrderingsTest, UniformResetMatchesLegacyPermutationDraws) {
  // SampledUtilityRecorder's historical convention: Rng::Permutation per
  // draw (identity reset, then shuffle).
  const int n = 7;
  Rng legacy(99);
  std::vector<std::vector<int>> expected;
  for (int s = 0; s < 5; ++s) expected.push_back(legacy.Permutation(n));

  Rng rng(99);
  SamplerConfig cfg;  // uniform
  std::vector<std::vector<int>> got =
      DrawOrderings(cfg, Iota(n), 5, &rng, /*reset_between_draws=*/true);
  EXPECT_EQ(got, expected);
}

TEST(DrawOrderingsTest, EveryOrderingIsAPermutationOfThePlayers) {
  const std::vector<int> players = {5, 2, 8, 0, 11, 3};
  std::vector<int> sorted_players(players);
  std::sort(sorted_players.begin(), sorted_players.end());
  for (SamplerKind kind :
       {SamplerKind::kUniformIid, SamplerKind::kAntithetic,
        SamplerKind::kStratified, SamplerKind::kTruncated}) {
    SamplerConfig cfg;
    cfg.kind = kind;
    Rng rng(7);
    // 13 is deliberately not a multiple of the pair/block sizes.
    std::vector<std::vector<int>> orders =
        DrawOrderings(cfg, players, 13, &rng);
    ASSERT_EQ(orders.size(), 13u) << SamplerKindName(kind);
    for (const std::vector<int>& order : orders) {
      std::vector<int> sorted(order);
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, sorted_players) << SamplerKindName(kind);
    }
  }
}

TEST(DrawOrderingsTest, AntitheticOrderingsComeInReversedPairs) {
  SamplerConfig cfg;
  cfg.kind = SamplerKind::kAntithetic;
  Rng rng(11);
  std::vector<std::vector<int>> orders =
      DrawOrderings(cfg, Iota(6), 10, &rng);
  ASSERT_EQ(orders.size(), 10u);
  for (size_t p = 0; p + 1 < orders.size(); p += 2) {
    std::vector<int> reversed(orders[p].rbegin(), orders[p].rend());
    EXPECT_EQ(orders[p + 1], reversed) << "pair " << p;
  }
}

TEST(DrawOrderingsTest, StratifiedBlocksCoverEveryPositionOnce) {
  // Within one block of m rotations, every player occupies every
  // position exactly once (a cyclic Latin square).
  const int m = 5;
  SamplerConfig cfg;
  cfg.kind = SamplerKind::kStratified;
  Rng rng(13);
  std::vector<std::vector<int>> orders =
      DrawOrderings(cfg, Iota(m), 2 * m, &rng);
  ASSERT_EQ(orders.size(), static_cast<size_t>(2 * m));
  for (int block = 0; block < 2; ++block) {
    for (int pos = 0; pos < m; ++pos) {
      std::vector<int> players_at_pos;
      for (int r = 0; r < m; ++r) {
        players_at_pos.push_back(orders[block * m + r][pos]);
      }
      std::sort(players_at_pos.begin(), players_at_pos.end());
      EXPECT_EQ(players_at_pos, Iota(m))
          << "block " << block << " position " << pos;
    }
  }
}

TEST(DrawOrderingsTest, DefaultBudgetRoundsUpToAntitheticPairs) {
  SamplerConfig antithetic;
  antithetic.kind = SamplerKind::kAntithetic;
  EXPECT_EQ(RoundBudgetForSampler(antithetic, 9), 10);
  EXPECT_EQ(RoundBudgetForSampler(antithetic, 10), 10);
  SamplerConfig uniform;
  EXPECT_EQ(RoundBudgetForSampler(uniform, 9), 9);
}

TEST(DrawOrderingsTest, DegenerateBudgetsAreFlooredNotDropped) {
  // Budget 0 (or negative, from integer division upstream) must still
  // yield at least one draw — a zero budget would make the estimate an
  // empty average (NaN / silent zeros). Antithetic floors at one full
  // forward/reverse pair.
  SamplerConfig uniform;
  EXPECT_EQ(RoundBudgetForSampler(uniform, 0), 1);
  EXPECT_EQ(RoundBudgetForSampler(uniform, -5), 1);
  EXPECT_EQ(RoundBudgetForSampler(uniform, 1), 1);
  SamplerConfig antithetic;
  antithetic.kind = SamplerKind::kAntithetic;
  EXPECT_EQ(RoundBudgetForSampler(antithetic, 0), 2);
  EXPECT_EQ(RoundBudgetForSampler(antithetic, -5), 2);
  EXPECT_EQ(RoundBudgetForSampler(antithetic, 1), 2);
  SamplerConfig stratified;
  stratified.kind = SamplerKind::kStratified;
  EXPECT_EQ(RoundBudgetForSampler(stratified, 0), 1);
  SamplerConfig truncated;
  truncated.kind = SamplerKind::kTruncated;
  EXPECT_EQ(RoundBudgetForSampler(truncated, 0), 1);
}

TEST(SamplerEstimatesTest, SingleClientGameWorksForEverySampler) {
  // A single-player game is all edge case: one ordering, one stratum,
  // antithetic pairs that are their own reverse. No sampler may crash,
  // deadlock, or mis-estimate the lone player's value.
  for (SamplerKind kind :
       {SamplerKind::kUniformIid, SamplerKind::kAntithetic,
        SamplerKind::kStratified, SamplerKind::kTruncated}) {
    SamplerConfig cfg;
    cfg.kind = kind;
    Rng rng(5);
    const int budget = RoundBudgetForSampler(cfg, 0);
    Result<Vector> est = MonteCarloShapley(
        1, {0}, AdditiveGame({4.25}), budget, &rng, nullptr, nullptr, cfg);
    ASSERT_TRUE(est.ok()) << "kind " << static_cast<int>(kind);
    EXPECT_NEAR(est.value()[0], 4.25, 1e-12)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(SamplerEstimatesTest, AllSamplersExactOnAdditiveGames) {
  // For additive games every ordering's marginal is the own weight, so
  // every sampler (including truncated walks — partial sums of positive
  // weights never hit the total early) is exact with any budget.
  const std::vector<double> weights = {2.0, 0.5, 1.25, 3.0};
  for (SamplerKind kind :
       {SamplerKind::kUniformIid, SamplerKind::kAntithetic,
        SamplerKind::kStratified, SamplerKind::kTruncated}) {
    SamplerConfig cfg;
    cfg.kind = kind;
    cfg.truncation_tolerance = 0.0;
    Rng rng(17);
    Result<Vector> est =
        MonteCarloShapley(4, {0, 1, 2, 3}, AdditiveGame(weights), 6, &rng,
                          nullptr, nullptr, cfg);
    ASSERT_TRUE(est.ok()) << SamplerKindName(kind);
    for (int i = 0; i < 4; ++i) {
      EXPECT_NEAR(est.value()[i], weights[i], 1e-12)
          << SamplerKindName(kind) << " player " << i;
    }
  }
}

TEST(SamplerEstimatesTest, VarianceReducedSamplersConvergeToExact) {
  // Unbiasedness check on a nonlinear game: every sampler's estimate
  // approaches the exact values as the budget grows.
  std::vector<int> players = {0, 1, 2, 3, 4};
  UtilityFn game = [](const Coalition& c) {
    double v = 0.0;
    for (int m : c.Members()) v += std::sqrt(m + 1.0);
    if (c.Count() >= 3) v += 2.0;
    if (c.Contains(1) && c.Contains(4)) v += 1.0;
    return v;
  };
  Result<Vector> exact = ExactShapley(5, players, game);
  ASSERT_TRUE(exact.ok());

  for (SamplerKind kind :
       {SamplerKind::kAntithetic, SamplerKind::kStratified}) {
    SamplerConfig cfg;
    cfg.kind = kind;
    Rng rng(19);
    Result<Vector> est = MonteCarloShapley(5, players, game, 20000, &rng,
                                           nullptr, nullptr, cfg);
    ASSERT_TRUE(est.ok()) << SamplerKindName(kind);
    for (int i = 0; i < 5; ++i) {
      EXPECT_NEAR(est.value()[i], exact.value()[i], 0.03)
          << SamplerKindName(kind) << " player " << i;
    }
  }
}

TEST(TruncatedWalkTest, PlateauGameSkipsTailLossCallsExactly) {
  // U(S) = min(|S|, 2): the walk saturates at position 1, so a zero
  // tolerance already truncates there — and because the skipped tail's
  // marginals are exactly 0, the estimate matches the untruncated one
  // bit for bit (same rng, same orderings).
  const int m = 6;
  const int perms = 13;
  UtilityFn plateau = [](const Coalition& c) {
    return std::min<double>(c.Count(), 2.0);
  };
  std::vector<int> players = Iota(m);

  CountingGame uniform_count{plateau};
  Rng uniform_rng(23);
  Result<Vector> uniform_est = MonteCarloShapley(
      m, players, uniform_count.Fn(), perms, &uniform_rng);
  ASSERT_TRUE(uniform_est.ok());
  EXPECT_EQ(uniform_count.evals, perms * m);

  CountingGame truncated_count{plateau};
  SamplerConfig cfg;
  cfg.kind = SamplerKind::kTruncated;
  cfg.truncation_tolerance = 0.0;
  Rng truncated_rng(23);
  Result<Vector> truncated_est =
      MonteCarloShapley(m, players, truncated_count.Fn(), perms,
                        &truncated_rng, nullptr, nullptr, cfg);
  ASSERT_TRUE(truncated_est.ok());
  // One grand-coalition reference + two prefixes per permutation.
  EXPECT_EQ(truncated_count.evals, 1 + perms * 2);
  for (int i = 0; i < m; ++i) {
    EXPECT_EQ(truncated_est.value()[i], uniform_est.value()[i]) << i;
  }
}

TEST(TruncatedWalkTest, BiasIsBoundedByTheTolerance) {
  // U(S) = 1 - 2^{-|S|} over 5 players: the gap to U(grand) after c
  // players is 2^{-c} - 2^{-5}, so tolerance 0.1 truncates every walk
  // after exactly 3 positions. The telescoped total is then 1 - 2^{-3}
  // for every permutation: the estimate's balance deficit vs U(grand)
  // is exactly the truncated mass, which the tolerance bounds.
  const int m = 5;
  UtilityFn game = [](const Coalition& c) {
    return 1.0 - std::pow(2.0, -static_cast<double>(c.Count()));
  };
  const double grand = 1.0 - std::pow(2.0, -5.0);

  CountingGame counting{game};
  SamplerConfig cfg;
  cfg.kind = SamplerKind::kTruncated;
  cfg.truncation_tolerance = 0.1;
  const int perms = 40;
  Rng rng(29);
  Result<Vector> est = MonteCarloShapley(m, Iota(m), counting.Fn(), perms,
                                         &rng, nullptr, nullptr, cfg);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value().Sum(), 1.0 - std::pow(2.0, -3.0), 1e-12);
  EXPECT_LE(std::fabs(est.value().Sum() - grand),
            cfg.truncation_tolerance);
  // Three prefixes per permutation plus the grand reference.
  EXPECT_EQ(counting.evals, 1 + perms * 3);
}

TEST(TruncatedWalkTest, NegativeOrNonFiniteToleranceRejected) {
  for (double tolerance : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(tolerance);
    SamplerConfig cfg;
    cfg.kind = SamplerKind::kTruncated;
    cfg.truncation_tolerance = tolerance;
    EXPECT_EQ(ValidateSamplerConfig(cfg).code(),
              StatusCode::kInvalidArgument);
    Rng rng(1);
    Result<Vector> est = MonteCarloShapley(
        3, {0, 1, 2}, AdditiveGame({1, 1, 1}), 4, &rng, nullptr, nullptr,
        cfg);
    EXPECT_FALSE(est.ok());
    EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(est.status().message().rfind("truncation_tolerance", 0), 0u)
        << est.status().ToString();
  }
  // Only the truncated sampler reads the tolerance.
  SamplerConfig uniform;
  uniform.truncation_tolerance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(ValidateSamplerConfig(uniform).ok());
}

}  // namespace
}  // namespace comfedsv
