// Matrix-completion tests: exact recovery of low-rank matrices from full
// and partial observations, solver agreement, and configuration guards.
#include "completion/solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "common/rng.h"
#include "completion/interner.h"
#include "completion/observations.h"
#include "linalg/matrix.h"

namespace comfedsv {
namespace {

Matrix RandomLowRank(int rows, int cols, int rank, uint64_t seed) {
  Rng rng(seed);
  Matrix a(rows, rank);
  Matrix b(rank, cols);
  for (int i = 0; i < rows; ++i) {
    for (int k = 0; k < rank; ++k) a(i, k) = rng.NextGaussian();
  }
  for (int k = 0; k < rank; ++k) {
    for (int j = 0; j < cols; ++j) b(k, j) = rng.NextGaussian();
  }
  return Matrix::Multiply(a, b);
}

ObservationSet FullObservations(const Matrix& m) {
  ObservationSet obs(m.rows(), m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      obs.Add(static_cast<int>(i), static_cast<int>(j), m(i, j));
    }
  }
  obs.Finalize();
  return obs;
}

ObservationSet SampledObservations(const Matrix& m, double keep,
                                   uint64_t seed) {
  Rng rng(seed);
  ObservationSet obs(m.rows(), m.cols());
  // Guarantee coverage: one random observation per row and per column,
  // then Bernoulli sampling on top.
  for (size_t i = 0; i < m.rows(); ++i) {
    size_t j = rng.NextUint64(m.cols());
    obs.Add(static_cast<int>(i), static_cast<int>(j), m(i, j));
  }
  for (size_t j = 0; j < m.cols(); ++j) {
    size_t i = rng.NextUint64(m.rows());
    obs.Add(static_cast<int>(i), static_cast<int>(j), m(i, j));
  }
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      if (rng.NextBernoulli(keep)) {
        obs.Add(static_cast<int>(i), static_cast<int>(j), m(i, j));
      }
    }
  }
  obs.Finalize();
  return obs;
}

double RelativeError(const Matrix& reference, const CompletionResult& fit) {
  Matrix approx = Matrix::Multiply(fit.w, fit.h.Transpose());
  return approx.FrobeniusDistance(reference) / reference.FrobeniusNorm();
}

TEST(ObservationSetTest, IndexingAndDensity) {
  ObservationSet obs(3, 4);
  obs.Add(0, 1, 5.0);
  obs.Add(2, 1, 7.0);
  obs.Add(0, 3, 9.0);
  EXPECT_FALSE(obs.finalized());
  obs.Finalize();
  EXPECT_TRUE(obs.finalized());
  EXPECT_EQ(obs.size(), 3u);
  EXPECT_EQ(obs.RowNnz(0), 2);
  EXPECT_EQ(obs.RowNnz(1), 0);
  EXPECT_EQ(obs.ColNnz(1), 2);
  EXPECT_DOUBLE_EQ(obs.Density(), 3.0 / 12.0);
  // CSR row 0 holds (0,1,5) then (0,3,9) in insertion order.
  EXPECT_EQ(obs.row_offsets()[0], 0);
  EXPECT_EQ(obs.row_offsets()[1], 2);
  EXPECT_EQ(obs.csr_cols()[0], 1);
  EXPECT_EQ(obs.csr_cols()[1], 3);
  EXPECT_DOUBLE_EQ(obs.csr_values()[1], 9.0);
  // CSC column 3 holds the single entry (0,3,9).
  const int q = obs.col_offsets()[3];
  EXPECT_EQ(obs.csc_rows()[q], 0);
  EXPECT_DOUBLE_EQ(obs.csc_values()[q], 9.0);
}

// CSR/CSC views vs reference per-row / per-column index lists built
// straight from the triplets: random pattern with empty rows and
// columns, plus duplicate (row, col) observations (the same coalition
// observed in several permutations).
TEST(ObservationSetTest, CompressedViewsMatchReferenceLists) {
  const int rows = 17, cols = 23;
  Rng rng(77);
  ObservationSet obs(rows, cols);
  for (int i = 0; i < rows; ++i) {
    if (i % 5 == 3) continue;  // leave some rows empty
    for (int j = 0; j < cols; ++j) {
      if (j % 7 == 2) continue;  // leave some columns empty
      if (!rng.NextBernoulli(0.3)) continue;
      const double v = rng.NextGaussian();
      obs.Add(i, j, v);
      if (rng.NextBernoulli(0.2)) obs.Add(i, j, v + 1.0);  // duplicate cell
    }
  }
  obs.Finalize();
  const auto& entries = obs.entries();
  const size_t nnz = entries.size();
  ASSERT_GT(nnz, 0u);

  // Reference adjacency: indices into entries() in insertion order.
  std::vector<std::vector<int>> by_row(rows), by_col(cols);
  for (size_t e = 0; e < nnz; ++e) {
    by_row[entries[e].row].push_back(static_cast<int>(e));
    by_col[entries[e].col].push_back(static_cast<int>(e));
  }

  ASSERT_EQ(obs.row_offsets().size(), static_cast<size_t>(rows) + 1);
  EXPECT_EQ(obs.row_offsets()[rows], static_cast<int>(nnz));
  for (int i = 0; i < rows; ++i) {
    const int begin = obs.row_offsets()[i];
    ASSERT_EQ(obs.row_offsets()[i + 1] - begin,
              static_cast<int>(by_row[i].size()));
    for (size_t t = 0; t < by_row[i].size(); ++t) {
      const Observation& e = entries[by_row[i][t]];
      const int p = begin + static_cast<int>(t);
      EXPECT_EQ(obs.csr_cols()[p], e.col);
      EXPECT_EQ(obs.csr_values()[p], e.value);
      EXPECT_EQ(obs.csr_entry()[p], by_row[i][t]);
    }
  }

  ASSERT_EQ(obs.col_offsets().size(), static_cast<size_t>(cols) + 1);
  EXPECT_EQ(obs.col_offsets()[cols], static_cast<int>(nnz));
  for (int j = 0; j < cols; ++j) {
    const int begin = obs.col_offsets()[j];
    ASSERT_EQ(obs.col_offsets()[j + 1] - begin,
              static_cast<int>(by_col[j].size()));
    for (size_t t = 0; t < by_col[j].size(); ++t) {
      const Observation& e = entries[by_col[j][t]];
      const int q = begin + static_cast<int>(t);
      EXPECT_EQ(obs.csc_rows()[q], e.row);
      EXPECT_EQ(obs.csc_values()[q], e.value);
      // The CSC -> CSR map lands on the same underlying entry.
      const int p = obs.csc_to_csr()[q];
      EXPECT_EQ(obs.csr_entry()[p], by_col[j][t]);
      EXPECT_EQ(obs.csr_cols()[p], e.col);
      EXPECT_EQ(obs.csr_values()[p], e.value);
    }
  }
}

TEST(ObservationSetTest, FinalizeIsIdempotent) {
  ObservationSet obs(2, 2);
  obs.Add(0, 0, 1.0);
  obs.Finalize();
  obs.Finalize();  // no-op
  EXPECT_EQ(obs.RowNnz(0), 1);
}

TEST(ObservationSetDeathTest, MutationAfterFinalizeCheckFails) {
  ObservationSet obs(2, 2);
  obs.Add(0, 0, 1.0);
  obs.Finalize();
  EXPECT_DEATH(obs.Add(1, 1, 2.0), "Finalize");
  EXPECT_DEATH(obs.AddAll({{1, 1, 2.0}}), "finalized");
  EXPECT_DEATH(obs.Reserve(4), "finalized");
}

TEST(ObservationSetDeathTest, CompressedViewsRequireFinalize) {
  ObservationSet obs(2, 2);
  obs.Add(0, 0, 1.0);
  EXPECT_DEATH(obs.row_offsets(), "finalized");
  EXPECT_DEATH(obs.col_offsets(), "finalized");
}

class SolverParamTest : public ::testing::TestWithParam<CompletionSolver> {
};

TEST_P(SolverParamTest, RecoversLowRankFromFullObservations) {
  Matrix truth = RandomLowRank(20, 15, 3, 1);
  CompletionConfig cfg;
  cfg.rank = 3;
  cfg.lambda = 1e-6;
  cfg.max_iters = 300;
  cfg.solver = GetParam();
  cfg.seed = 2;
  Result<CompletionResult> fit =
      CompleteMatrix(FullObservations(truth), cfg);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_LT(RelativeError(truth, fit.value()), 1e-2)
      << CompletionSolverName(GetParam());
  EXPECT_LT(fit.value().observed_rmse, 1e-2);
}

TEST_P(SolverParamTest, RecoversLowRankFromPartialObservations) {
  Matrix truth = RandomLowRank(30, 25, 2, 3);
  ObservationSet obs = SampledObservations(truth, 0.5, 4);
  CompletionConfig cfg;
  cfg.rank = 2;
  // Moderate regularization: with ~50% sampling, a tiny lambda lets the
  // exact ALS row solves overfit sparsely observed rows.
  cfg.lambda = 1e-1;
  cfg.max_iters = 400;
  cfg.solver = GetParam();
  cfg.seed = 5;
  // Exercise the fused-objective cross-check in release builds too.
  cfg.verify_fused_objective = true;
  Result<CompletionResult> fit = CompleteMatrix(obs, cfg);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(RelativeError(truth, fit.value()), 0.1)
      << CompletionSolverName(GetParam());
}

TEST_P(SolverParamTest, OverparameterizedRankStillFits) {
  Matrix truth = RandomLowRank(15, 12, 2, 7);
  CompletionConfig cfg;
  cfg.rank = 6;  // more than the true rank
  cfg.lambda = 1e-4;
  cfg.max_iters = 200;
  cfg.solver = GetParam();
  Result<CompletionResult> fit =
      CompleteMatrix(FullObservations(truth), cfg);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(fit.value().observed_rmse, 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SolverParamTest,
                         ::testing::Values(CompletionSolver::kAls,
                                           CompletionSolver::kCcd),
                         [](const auto& info) {
                           return CompletionSolverName(info.param) ==
                                          "ccd++"
                                      ? std::string("ccd")
                                      : CompletionSolverName(info.param);
                         });

TEST(CompletionTest, StrongRegularizationShrinksFactors) {
  Matrix truth = RandomLowRank(10, 10, 2, 9);
  CompletionConfig weak;
  weak.rank = 2;
  weak.lambda = 1e-6;
  weak.max_iters = 100;
  CompletionConfig strong = weak;
  strong.lambda = 100.0;
  auto fit_weak = CompleteMatrix(FullObservations(truth), weak);
  auto fit_strong = CompleteMatrix(FullObservations(truth), strong);
  ASSERT_TRUE(fit_weak.ok() && fit_strong.ok());
  const double norm_weak = fit_weak.value().w.FrobeniusNorm() +
                           fit_weak.value().h.FrobeniusNorm();
  const double norm_strong = fit_strong.value().w.FrobeniusNorm() +
                             fit_strong.value().h.FrobeniusNorm();
  EXPECT_LT(norm_strong, norm_weak);
}

TEST(CompletionTest, PredictMatchesFactorProduct) {
  Matrix truth = RandomLowRank(6, 5, 2, 11);
  CompletionConfig cfg;
  cfg.rank = 2;
  cfg.lambda = 1e-5;
  auto fit = CompleteMatrix(FullObservations(truth), cfg);
  ASSERT_TRUE(fit.ok());
  Matrix product =
      Matrix::Multiply(fit.value().w, fit.value().h.Transpose());
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_NEAR(fit.value().Predict(i, j), product(i, j), 1e-12);
    }
  }
}

TEST(CompletionTest, DeterministicGivenSeed) {
  Matrix truth = RandomLowRank(8, 8, 2, 13);
  CompletionConfig cfg;
  cfg.rank = 2;
  cfg.lambda = 1e-4;
  cfg.seed = 42;
  auto a = CompleteMatrix(FullObservations(truth), cfg);
  auto b = CompleteMatrix(FullObservations(truth), cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a.value().w == b.value().w);
  EXPECT_TRUE(a.value().h == b.value().h);
}

TEST(CompletionTest, ConfigGuards) {
  ObservationSet unfinalized(2, 2);
  unfinalized.Add(0, 0, 1.0);
  CompletionConfig cfg;
  EXPECT_FALSE(CompleteMatrix(unfinalized, cfg).ok());  // needs Finalize()

  ObservationSet obs(2, 2);
  obs.Add(0, 0, 1.0);
  obs.Finalize();
  cfg.rank = 0;
  EXPECT_FALSE(CompleteMatrix(obs, cfg).ok());
  cfg.rank = 2;
  cfg.lambda = -1.0;
  EXPECT_FALSE(CompleteMatrix(obs, cfg).ok());
  cfg.lambda = 0.0;  // ill-posed for both solvers
  EXPECT_FALSE(CompleteMatrix(obs, cfg).ok());
  cfg.lambda = 0.1;
  EXPECT_TRUE(CompleteMatrix(obs, cfg).ok());
  ObservationSet empty(2, 2);
  empty.Finalize();
  EXPECT_FALSE(CompleteMatrix(empty, cfg).ok());
}

TEST(CompletionTest, ValidationNamesEveryBadField) {
  // Each of these used to abort inside a solver sweep (non-finite lambda,
  // init_scale or temporal_smoothing) or be silently ignored (a negative
  // or CCD++ temporal_smoothing, a negative init_scale, max_iters < 1).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* field;
    std::function<void(CompletionConfig*)> set;
  };
  const Case cases[] = {
      {"lambda", [&](CompletionConfig* c) { c->lambda = nan; }},
      {"lambda", [&](CompletionConfig* c) { c->lambda = inf; }},
      {"max_iters", [](CompletionConfig* c) { c->max_iters = -5; }},
      {"max_iters", [](CompletionConfig* c) { c->max_iters = 0; }},
      {"init_scale", [&](CompletionConfig* c) { c->init_scale = nan; }},
      {"init_scale", [&](CompletionConfig* c) { c->init_scale = inf; }},
      {"init_scale", [](CompletionConfig* c) { c->init_scale = -1.0; }},
      {"temporal_smoothing",
       [&](CompletionConfig* c) { c->temporal_smoothing = nan; }},
      {"temporal_smoothing",
       [&](CompletionConfig* c) { c->temporal_smoothing = inf; }},
      {"temporal_smoothing",
       [](CompletionConfig* c) { c->temporal_smoothing = -1.0; }},
      {"temporal_smoothing",
       [](CompletionConfig* c) {
         c->solver = CompletionSolver::kCcd;
         c->temporal_smoothing = 0.1;
       }},
  };
  const ObservationSet obs = FullObservations(RandomLowRank(6, 5, 2, 17));
  for (const Case& bad : cases) {
    CompletionConfig cfg;
    cfg.rank = 2;
    cfg.temporal_smoothing = 0.1;
    ASSERT_TRUE(ValidateCompletionConfig(cfg).ok());
    bad.set(&cfg);
    const Status status = CompleteMatrix(obs, cfg).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad.field;
    EXPECT_EQ(status.message().rfind(bad.field, 0), 0u)
        << bad.field << ": " << status.message();
  }

  // Never stopping early is a valid setting, and CCD++ runs at mu = 0.
  CompletionConfig ccd;
  ccd.solver = CompletionSolver::kCcd;
  ccd.tolerance = -inf;
  EXPECT_TRUE(ValidateCompletionConfig(ccd).ok());
}

TEST(InternerTest, InternFindGetRoundTrip) {
  CoalitionInterner interner;
  Coalition a = Coalition::FromMembers(5, {1, 2});
  Coalition b = Coalition::FromMembers(5, {3});
  EXPECT_EQ(interner.Intern(a), 0);
  EXPECT_EQ(interner.Intern(b), 1);
  EXPECT_EQ(interner.Intern(a), 0);  // dedup
  EXPECT_EQ(interner.size(), 2);
  EXPECT_EQ(interner.Find(a), 0);
  EXPECT_EQ(interner.Find(Coalition::FromMembers(5, {0})), -1);
  EXPECT_EQ(interner.Get(1), b);
}

}  // namespace
}  // namespace comfedsv
