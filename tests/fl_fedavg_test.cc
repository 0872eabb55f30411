#include "fl/fedavg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>

#include "data/image_sim.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/selection.h"
#include "models/logistic.h"

namespace comfedsv {
namespace {

struct Workload {
  std::vector<Dataset> clients;
  Dataset test;
};

Workload MakeWorkload(int num_clients, uint64_t seed) {
  SimulatedImageConfig cfg;
  cfg.num_samples = 100 * num_clients + 200;
  cfg.seed = seed;
  Dataset pool = GenerateSimulatedImages(cfg);
  Rng rng(seed + 1);
  auto [train_pool, test] = pool.RandomSplit(0.2, &rng);
  return {PartitionIid(train_pool, num_clients, &rng), std::move(test)};
}

TEST(SelectionTest, UniformSelectorSizeAndRange) {
  UniformSelector sel(3);
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> picked = sel.Select(round, 10, &rng);
    EXPECT_EQ(picked.size(), 3u);
    std::set<int> uniq(picked.begin(), picked.end());
    EXPECT_EQ(uniq.size(), 3u);
    for (int c : picked) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, 10);
    }
  }
}

TEST(SelectionTest, UniformSelectorClampsToPopulation) {
  UniformSelector sel(10);
  Rng rng(2);
  EXPECT_EQ(sel.Select(0, 4, &rng).size(), 4u);
}

TEST(SelectionTest, EveryoneHeardFirstRoundIsFull) {
  auto sel = EveryoneHeardSelector(std::make_unique<UniformSelector>(2));
  Rng rng(3);
  std::vector<int> round0 = sel.Select(0, 6, &rng);
  EXPECT_EQ(round0.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(round0[i], i);
  EXPECT_EQ(sel.Select(1, 6, &rng).size(), 2u);
}

TEST(SelectionTest, UniformInclusionFrequency) {
  UniformSelector sel(3);
  Rng rng(5);
  std::vector<int> counts(10, 0);
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    for (int c : sel.Select(t, 10, &rng)) ++counts[c];
  }
  for (int c = 0; c < 10; ++c) {
    EXPECT_NEAR(counts[c] / static_cast<double>(trials), 0.3, 0.03);
  }
}

TEST(SelectionTest, BernoulliSelectorRangeAndEdgeProbabilities) {
  BernoulliSelector sel(0.4);
  Rng rng(3);
  int total = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<int> picked = sel.Select(round, 10, &rng);
    EXPECT_TRUE(std::is_sorted(picked.begin(), picked.end()));
    for (int c : picked) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, 10);
    }
    total += static_cast<int>(picked.size());
  }
  // 200 rounds x 10 clients x p=0.4: mean 800, far from the tails.
  EXPECT_GT(total, 650);
  EXPECT_LT(total, 950);

  BernoulliSelector none(0.0);
  EXPECT_TRUE(none.Select(0, 5, &rng).empty());
  BernoulliSelector all(1.0);
  EXPECT_EQ(all.Select(0, 5, &rng).size(), 5u);
}

TEST(FedAvgTest, SurvivesEmptySelectionRounds) {
  // A Bernoulli selector with p = 0 never selects anyone: the trainer
  // must carry the global model through unchanged (no aggregation, no
  // division by zero) while still notifying observers, which record zero
  // contribution for such rounds.
  Workload w = MakeWorkload(3, 77);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg;
  cfg.num_rounds = 3;
  cfg.clients_per_round = 2;
  cfg.seed = 78;

  struct Capture : RoundObserver {
    std::vector<size_t> selected_sizes;
    std::vector<Vector> globals;
    void OnRound(const RoundRecord& r) override {
      selected_sizes.push_back(r.selected.size());
      globals.push_back(r.global_before);
    }
  } capture;

  BernoulliSelector never(0.0);
  FedAvgTrainer trainer(&model, w.clients, w.test, cfg);
  Result<TrainingResult> result = trainer.Train(&capture, &never);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(capture.selected_sizes.size(), 3u);
  for (size_t s : capture.selected_sizes) EXPECT_EQ(s, 0u);
  // The global model never moves.
  for (const Vector& g : capture.globals) {
    ASSERT_EQ(g.size(), capture.globals[0].size());
    for (size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g[i], capture.globals[0][i]);
    }
  }
  for (size_t i = 0; i < result.value().final_params.size(); ++i) {
    EXPECT_EQ(result.value().final_params[i], capture.globals[0][i]);
  }
}

TEST(FedAvgTest, RunsAndImprovesTestLoss) {
  Workload w = MakeWorkload(5, 11);
  LogisticRegression model(w.test.dim(), 10, 1e-4);
  FedAvgConfig cfg;
  cfg.num_rounds = 15;
  cfg.clients_per_round = 3;
  cfg.lr = LearningRateSchedule::Constant(0.5);
  cfg.seed = 12;
  FedAvgTrainer trainer(&model, w.clients, w.test, cfg);
  Result<TrainingResult> result = trainer.Train();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& history = result.value().test_loss_history;
  ASSERT_EQ(history.size(), 16u);
  EXPECT_LT(history.back(), history.front() * 0.9);
  EXPECT_GT(result.value().final_test_accuracy, 0.3);
}

TEST(FedAvgTest, DeterministicGivenSeed) {
  Workload w = MakeWorkload(4, 13);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg;
  cfg.num_rounds = 5;
  cfg.clients_per_round = 2;
  cfg.seed = 99;
  FedAvgTrainer t1(&model, w.clients, w.test, cfg);
  FedAvgTrainer t2(&model, w.clients, w.test, cfg);
  Result<TrainingResult> r1 = t1.Train();
  Result<TrainingResult> r2 = t2.Train();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(r1.value().final_params == r2.value().final_params);
}

TEST(FedAvgTest, ThreadedMatchesSingleThreaded) {
  Workload w = MakeWorkload(6, 17);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg;
  cfg.num_rounds = 4;
  cfg.clients_per_round = 3;
  cfg.seed = 7;
  FedAvgTrainer single(&model, w.clients, w.test, cfg);
  ExecutionContext ctx(4);
  FedAvgTrainer threaded(&model, w.clients, w.test, cfg, &ctx);
  Result<TrainingResult> r1 = single.Train();
  Result<TrainingResult> r2 = threaded.Train();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(r1.value().final_params == r2.value().final_params);
}

// Records what the trainer reports to observers for structural checks.
class RecordingObserver : public RoundObserver {
 public:
  void OnRound(const RoundRecord& record) override {
    rounds.push_back(record.round);
    selected_sets.push_back(record.selected);
    num_local_models.push_back(record.local_models.size());
    global_norms.push_back(record.global_before.Norm2());
  }
  std::vector<int> rounds;
  std::vector<std::vector<int>> selected_sets;
  std::vector<size_t> num_local_models;
  std::vector<double> global_norms;
};

TEST(FedAvgTest, ObserverSeesAllRoundsAndAllClients) {
  Workload w = MakeWorkload(5, 19);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg;
  cfg.num_rounds = 6;
  cfg.clients_per_round = 2;
  cfg.select_all_first_round = true;
  cfg.seed = 3;
  FedAvgTrainer trainer(&model, w.clients, w.test, cfg);
  RecordingObserver obs;
  ASSERT_TRUE(trainer.Train(&obs).ok());
  ASSERT_EQ(obs.rounds.size(), 6u);
  for (int t = 0; t < 6; ++t) EXPECT_EQ(obs.rounds[t], t);
  // Assumption 1: first round selects everyone.
  EXPECT_EQ(obs.selected_sets[0].size(), 5u);
  for (size_t t = 1; t < 6; ++t) {
    EXPECT_EQ(obs.selected_sets[t].size(), 2u);
  }
  // Every round exposes every client's local model.
  for (size_t t = 0; t < 6; ++t) EXPECT_EQ(obs.num_local_models[t], 5u);
}

TEST(FedAvgTest, AggregationIsMeanOfSelected) {
  // With one round and a custom observer we can recompute the aggregate.
  Workload w = MakeWorkload(4, 23);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg;
  cfg.num_rounds = 1;
  cfg.clients_per_round = 4;
  cfg.seed = 5;

  class CaptureObserver : public RoundObserver {
   public:
    void OnRound(const RoundRecord& record) override { captured = record; }
    RoundRecord captured;
  } obs;

  FedAvgTrainer trainer(&model, w.clients, w.test, cfg);
  Result<TrainingResult> result = trainer.Train(&obs);
  ASSERT_TRUE(result.ok());
  Vector expected(obs.captured.global_before.size());
  for (int i : obs.captured.selected) {
    expected.Axpy(1.0, obs.captured.local_models[i]);
  }
  expected.Scale(1.0 / obs.captured.selected.size());
  EXPECT_LT(Distance(expected, result.value().final_params), 1e-12);
}

TEST(FedAvgTest, InvalidConfigsRejected) {
  Workload w = MakeWorkload(3, 29);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg;
  cfg.num_rounds = 0;
  FedAvgTrainer t1(&model, w.clients, w.test, cfg);
  EXPECT_FALSE(t1.Train().ok());
  cfg.num_rounds = 2;
  cfg.clients_per_round = 99;
  FedAvgTrainer t2(&model, w.clients, w.test, cfg);
  EXPECT_FALSE(t2.Train().ok());

  // Each of these but participation_prob = 1.5 used to pass validation:
  // a NaN participation_prob then aborted in BernoulliSelector, and
  // Begin returned Ok for the others. The error names the field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Row {
    const char* field;
    std::function<void(FedAvgConfig*)> edit;
  };
  const std::vector<Row> rows = {
      {"participation_prob",
       [&](FedAvgConfig* c) {
         c->selector = SelectorKind::kBernoulli;
         c->participation_prob = nan;
       }},
      {"participation_prob",
       [](FedAvgConfig* c) {
         c->selector = SelectorKind::kBernoulli;
         c->participation_prob = 1.5;
       }},
      {"lr.base",
       [&](FedAvgConfig* c) { c->lr = LearningRateSchedule::Constant(nan); }},
      {"lr.base",
       [&](FedAvgConfig* c) { c->lr = LearningRateSchedule::Constant(inf); }},
      {"lr.base",
       [](FedAvgConfig* c) { c->lr = LearningRateSchedule::Constant(-1.0); }},
      {"lr.base",
       [](FedAvgConfig* c) { c->lr = LearningRateSchedule::Constant(0.0); }},
      {"lr.mu",
       [](FedAvgConfig* c) {
         c->lr = LearningRateSchedule::InverseDecay(/*mu=*/0.0, 1.0);
       }},
      {"lr.mu",
       [&](FedAvgConfig* c) {
         c->lr = LearningRateSchedule::InverseDecay(/*mu=*/nan, 1.0);
       }},
      {"lr.gamma",
       [&](FedAvgConfig* c) {
         c->lr = LearningRateSchedule::InverseDecay(1.0, 1.0);
         c->lr.gamma = nan;
       }},
      // gamma = -1 makes At(0) = 2 / (mu * 0) = inf and gamma = -3.5 a
      // negative rate.
      {"lr.gamma",
       [](FedAvgConfig* c) {
         c->lr = LearningRateSchedule::InverseDecay(1.0, 1.0);
         c->lr.gamma = -1.0;
       }},
      {"lr.gamma",
       [](FedAvgConfig* c) {
         c->lr = LearningRateSchedule::InverseDecay(1.0, 1.0);
         c->lr.gamma = -3.5;
       }},
      {"local_steps", [](FedAvgConfig* c) { c->local_steps = 0; }},
      {"batch_size", [](FedAvgConfig* c) { c->batch_size = -1; }},
  };
  for (const Row& row : rows) {
    FedAvgConfig bad;
    bad.num_rounds = 2;
    bad.clients_per_round = 2;
    row.edit(&bad);
    FedAvgTrainer trainer(&model, w.clients, w.test, bad);
    const Status status = trainer.Begin();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << row.field;
    EXPECT_EQ(status.message().rfind(row.field, 0), 0u)
        << row.field << ": " << status.ToString();
  }

  // A huge but finite rate stays valid: it diverges, and the aggregation
  // guard and the numerical checks downstream own that.
  FedAvgConfig huge;
  huge.num_rounds = 2;
  huge.clients_per_round = 2;
  huge.lr = LearningRateSchedule::Constant(1e200);
  FedAvgTrainer t3(&model, w.clients, w.test, huge);
  EXPECT_TRUE(t3.Begin().ok());
}

TEST(FedAvgTest, MiniBatchModeRuns) {
  Workload w = MakeWorkload(3, 31);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg;
  cfg.num_rounds = 5;
  cfg.clients_per_round = 2;
  cfg.batch_size = 16;
  cfg.local_steps = 3;
  cfg.lr = LearningRateSchedule::Constant(0.3);
  cfg.seed = 6;
  FedAvgTrainer trainer(&model, w.clients, w.test, cfg);
  Result<TrainingResult> result = trainer.Train();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rounds_run, 5);
}

TEST(LearningRateScheduleTest, ConstantAndInverseDecay) {
  auto constant = LearningRateSchedule::Constant(0.25);
  EXPECT_DOUBLE_EQ(constant.At(0), 0.25);
  EXPECT_DOUBLE_EQ(constant.At(100), 0.25);

  auto decay = LearningRateSchedule::InverseDecay(/*mu=*/2.0,
                                                  /*smoothness=*/4.0);
  // gamma = max(8*4/2, 1) = 16; eta_t = 2 / (2 * (16 + t + 1)).
  EXPECT_DOUBLE_EQ(decay.At(0), 2.0 / (2.0 * 17.0));
  EXPECT_GT(decay.At(0), decay.At(1));
  EXPECT_GT(decay.At(1), decay.At(10));
}

}  // namespace
}  // namespace comfedsv
