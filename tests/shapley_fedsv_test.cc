// FedSV (Definition 2) tests: hand-computed rounds, properties within a
// round, and the unfairness phenomenon from Observation 1 / Example 1.
#include "shapley/fedsv.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/image_sim.h"
#include "data/partition.h"
#include "fl/fedavg.h"
#include "metrics/metrics.h"
#include "models/logistic.h"
#include "shapley/utility.h"

namespace comfedsv {
namespace {

// A 1-parameter "model" whose loss is (w - target)^2 over a dataset with
// a single scalar feature acting as the target. This makes round
// utilities analytically computable.
class QuadraticModel : public Model {
 public:
  size_t num_params() const override { return 1; }
  size_t input_dim() const override { return 1; }
  int num_classes() const override { return 2; }
  std::string name() const override { return "quadratic"; }

  double Loss(const Vector& params, const Dataset& data) const override {
    double acc = 0.0;
    for (size_t i = 0; i < data.num_samples(); ++i) {
      const double d = params[0] - data.sample(i)[0];
      acc += d * d;
    }
    return data.empty() ? 0.0 : acc / data.num_samples();
  }

  double LossAndGradient(const Vector& params, const Dataset& data,
                         Vector* grad) const override {
    grad->Resize(1);
    (*grad)[0] = 0.0;
    for (size_t i = 0; i < data.num_samples(); ++i) {
      (*grad)[0] += 2.0 * (params[0] - data.sample(i)[0]);
    }
    if (!data.empty()) (*grad)[0] /= data.num_samples();
    return Loss(params, data);
  }

  int Predict(const Vector&, const double*) const override { return 0; }
};

Dataset ScalarDataset(std::vector<double> targets) {
  Matrix feats(targets.size(), 1);
  std::vector<int> labels(targets.size(), 0);
  for (size_t i = 0; i < targets.size(); ++i) feats(i, 0) = targets[i];
  return Dataset(std::move(feats), std::move(labels), 2);
}

RoundRecord MakeRecord(double global, std::vector<double> locals,
                       std::vector<int> selected, const Model& model,
                       const Dataset& test) {
  RoundRecord rec;
  rec.round = 0;
  rec.global_before = Vector{global};
  for (double w : locals) rec.local_models.push_back(Vector{w});
  rec.selected = std::move(selected);
  rec.test_loss_before = model.Loss(rec.global_before, test);
  return rec;
}

TEST(RoundUtilityTest, MatchesHandComputation) {
  QuadraticModel model;
  Dataset test = ScalarDataset({1.0});  // loss(w) = (w-1)^2
  // Global w=0 (loss 1). Locals: w0=1 (loss 0), w1=0.5 (loss 0.25).
  RoundRecord rec = MakeRecord(0.0, {1.0, 0.5}, {0, 1}, model, test);
  UtilityStats stats;
  RoundUtility util(&model, &test, &rec, nullptr, &stats);

  EXPECT_DOUBLE_EQ(util.Utility(Coalition(2)), 0.0);  // empty
  // U({0}) = 1 - 0 = 1.
  EXPECT_DOUBLE_EQ(util.Utility(Coalition::FromMembers(2, {0})), 1.0);
  // U({1}) = 1 - 0.25 = 0.75.
  EXPECT_DOUBLE_EQ(util.Utility(Coalition::FromMembers(2, {1})), 0.75);
  // U({0,1}): mean model = 0.75, loss = 0.0625, utility = 0.9375.
  EXPECT_DOUBLE_EQ(util.Utility(Coalition::FromMembers(2, {0, 1})),
                   0.9375);
  EXPECT_EQ(stats.loss_calls, 3);  // empty coalition costs nothing
}

TEST(RoundUtilityTest, MemoizesRepeatedQueries) {
  QuadraticModel model;
  Dataset test = ScalarDataset({2.0});
  RoundRecord rec = MakeRecord(0.0, {1.0, 2.0}, {0, 1}, model, test);
  UtilityStats stats;
  RoundUtility util(&model, &test, &rec, nullptr, &stats);
  Coalition c = Coalition::FromMembers(2, {0, 1});
  const double u1 = util.Utility(c);
  const double u2 = util.Utility(c);
  EXPECT_DOUBLE_EQ(u1, u2);
  EXPECT_EQ(stats.loss_calls, 1);
  EXPECT_EQ(stats.memo_hits, 1);
}

TEST(FedSvRoundTest, HandComputedTwoClientRound) {
  // Round Shapley over I_t = {0, 1}:
  //   phi_0 = 1/2 [U({0}) - U({})] + 1/2 [U({0,1}) - U({1})]
  QuadraticModel model;
  Dataset test = ScalarDataset({1.0});
  RoundRecord rec = MakeRecord(0.0, {1.0, 0.5}, {0, 1}, model, test);
  FedSvConfig cfg;
  cfg.mode = FedSvConfig::Mode::kExact;
  FedSvEvaluator eval(&model, &test, 2, cfg);
  eval.OnRound(rec);
  const double u0 = 1.0, u1 = 0.75, u01 = 0.9375;
  EXPECT_NEAR(eval.values()[0], 0.5 * u0 + 0.5 * (u01 - u1), 1e-12);
  EXPECT_NEAR(eval.values()[1], 0.5 * u1 + 0.5 * (u01 - u0), 1e-12);
}

TEST(FedSvRoundTest, UnselectedClientGetsZero) {
  QuadraticModel model;
  Dataset test = ScalarDataset({1.0});
  RoundRecord rec = MakeRecord(0.0, {1.0, 0.5, 0.9}, {0, 2}, model, test);
  FedSvConfig cfg;
  FedSvEvaluator eval(&model, &test, 3, cfg);
  eval.OnRound(rec);
  EXPECT_DOUBLE_EQ(eval.values()[1], 0.0);
  EXPECT_NE(eval.values()[0], 0.0);
}

TEST(FedSvRoundTest, ValuesAccumulateAcrossRounds) {
  QuadraticModel model;
  Dataset test = ScalarDataset({1.0});
  RoundRecord rec = MakeRecord(0.0, {1.0, 0.5}, {0, 1}, model, test);
  FedSvConfig cfg;
  FedSvEvaluator eval(&model, &test, 2, cfg);
  eval.OnRound(rec);
  const double after_one = eval.values()[0];
  eval.OnRound(rec);
  EXPECT_NEAR(eval.values()[0], 2.0 * after_one, 1e-12);
}

TEST(FedSvRoundTest, RoundBalanceEqualsSelectedUtility) {
  // Within a round, sum of FedSVs over I_t equals U_t(I_t).
  QuadraticModel model;
  Dataset test = ScalarDataset({1.0, 3.0});
  RoundRecord rec =
      MakeRecord(0.2, {1.1, 0.4, 2.2}, {0, 1, 2}, model, test);
  FedSvConfig cfg;
  FedSvEvaluator eval(&model, &test, 3, cfg);
  eval.OnRound(rec);
  RoundUtility util(&model, &test, &rec);
  const double full = util.Utility(Coalition::FromMembers(3, {0, 1, 2}));
  EXPECT_NEAR(eval.values().Sum(), full, 1e-10);
}

TEST(FedSvRoundTest, EmptySelectedRoundIsSkippedInBothModes) {
  // Bernoulli-style selection can produce a round with no selected
  // clients; the evaluator must record zero contribution for it instead
  // of crashing on the estimators' "no players" guard, and later rounds
  // must keep accumulating normally.
  QuadraticModel model;
  Dataset test = ScalarDataset({1.0});
  RoundRecord empty_rec = MakeRecord(0.0, {1.0, 0.5}, {}, model, test);
  RoundRecord real_rec = MakeRecord(0.0, {1.0, 0.5}, {0, 1}, model, test);

  for (FedSvConfig::Mode mode :
       {FedSvConfig::Mode::kExact, FedSvConfig::Mode::kMonteCarlo}) {
    FedSvConfig cfg;
    cfg.mode = mode;
    cfg.permutations_per_round = 8;
    FedSvEvaluator eval(&model, &test, 2, cfg);
    eval.OnRound(empty_rec);
    EXPECT_DOUBLE_EQ(eval.values()[0], 0.0);
    EXPECT_DOUBLE_EQ(eval.values()[1], 0.0);
    EXPECT_EQ(eval.stats().loss_calls, 0);

    eval.OnRound(real_rec);
    EXPECT_NE(eval.values()[0], 0.0);
    const double after_real = eval.values()[0];
    eval.OnRound(empty_rec);  // still a no-op between real rounds
    EXPECT_DOUBLE_EQ(eval.values()[0], after_real);
  }
}

TEST(FedSvRoundTest, MonteCarloApproximatesExact) {
  QuadraticModel model;
  Dataset test = ScalarDataset({1.0});
  RoundRecord rec =
      MakeRecord(0.0, {0.9, 0.5, 0.2, 0.7}, {0, 1, 2, 3}, model, test);
  FedSvConfig exact_cfg;
  exact_cfg.mode = FedSvConfig::Mode::kExact;
  FedSvEvaluator exact(&model, &test, 4, exact_cfg);
  exact.OnRound(rec);

  FedSvConfig mc_cfg;
  mc_cfg.mode = FedSvConfig::Mode::kMonteCarlo;
  mc_cfg.permutations_per_round = 4000;
  mc_cfg.seed = 3;
  FedSvEvaluator mc(&model, &test, 4, mc_cfg);
  mc.OnRound(rec);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(mc.values()[i], exact.values()[i], 0.01) << i;
  }
}

TEST(FedSvUnfairnessTest, IdenticalClientsDivergeUnderPartialSelection) {
  // Example 1 scaled down: clients 0 and N-1 share identical data; under
  // 3-of-10 selection their FedSVs differ in most runs while full
  // participation keeps them exactly equal.
  SimulatedImageConfig icfg;
  icfg.num_samples = 660;
  icfg.seed = 55;
  Dataset pool = GenerateSimulatedImages(icfg);
  Rng rng(56);
  auto [train_pool, test] = pool.RandomSplit(0.2, &rng);
  auto clients = PartitionByLabelShards(train_pool, 9, 2, &rng);
  clients.push_back(clients[0]);  // client 9 duplicates client 0

  LogisticRegression model(test.dim(), 10, 1e-4);

  auto run_trial = [&](int clients_per_round, uint64_t seed) {
    FedAvgConfig fcfg;
    fcfg.num_rounds = 5;
    fcfg.clients_per_round = clients_per_round;
    fcfg.select_all_first_round = false;
    fcfg.lr = LearningRateSchedule::Constant(0.3);
    fcfg.seed = seed;
    FedSvConfig scfg;
    FedSvEvaluator eval(&model, &test, 10, scfg);
    FedAvgTrainer trainer(&model, clients, test, fcfg);
    COMFEDSV_CHECK_OK(trainer.Train(&eval).status());
    return RelativeDifference(eval.values()[0], eval.values()[9]);
  };

  // Full participation: identical data => identical values (symmetry of
  // the exact per-round Shapley).
  EXPECT_NEAR(run_trial(10, 100), 0.0, 1e-9);

  // Partial participation: the relative difference is large in most
  // trials (Example 1 reports P(d > 0.5) ~ 65%).
  int large = 0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    if (run_trial(3, 200 + t) > 0.5) ++large;
  }
  EXPECT_GE(large, trials / 2);
}

}  // namespace
}  // namespace comfedsv
