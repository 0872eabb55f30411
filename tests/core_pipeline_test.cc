// End-to-end RunValuation pipeline tests.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "data/image_sim.h"
#include "data/noise.h"
#include "data/partition.h"
#include "io/file_env.h"
#include "metrics/metrics.h"
#include "models/logistic.h"

namespace comfedsv {
namespace {

struct Workload {
  std::vector<Dataset> clients;
  Dataset test;
};

Workload MakeWorkload(int num_clients, uint64_t seed) {
  SimulatedImageConfig cfg;
  cfg.num_samples = 60 * num_clients + 100;
  cfg.seed = seed;
  Dataset pool = GenerateSimulatedImages(cfg);
  Rng rng(seed + 1);
  auto [train_pool, test] = pool.RandomSplit(0.25, &rng);
  return {PartitionIid(train_pool, num_clients, &rng), std::move(test)};
}

ValuationRequest DefaultRequest() {
  ValuationRequest req;
  req.compute_fedsv = true;
  req.compute_comfedsv = true;
  req.comfedsv.completion.rank = 4;
  req.comfedsv.completion.lambda = 1e-4;
  req.compute_ground_truth = true;
  return req;
}

FedAvgConfig FedConfig(int rounds, int per_round, uint64_t seed) {
  FedAvgConfig cfg;
  cfg.num_rounds = rounds;
  cfg.clients_per_round = per_round;
  cfg.lr = LearningRateSchedule::Constant(0.3);
  cfg.seed = seed;
  return cfg;
}

TEST(PipelineTest, ComputesAllRequestedMetrics) {
  Workload w = MakeWorkload(5, 71);
  LogisticRegression model(w.test.dim(), 10);
  Result<ValuationOutcome> outcome =
      RunValuation(model, w.clients, w.test, FedConfig(5, 2, 73),
                   DefaultRequest());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ValuationOutcome& o = outcome.value();
  ASSERT_TRUE(o.fedsv_values.has_value());
  ASSERT_TRUE(o.comfedsv.has_value());
  ASSERT_TRUE(o.ground_truth_values.has_value());
  EXPECT_EQ(o.fedsv_values->size(), 5u);
  EXPECT_EQ(o.comfedsv->values.size(), 5u);
  EXPECT_EQ(o.ground_truth_values->size(), 5u);
  EXPECT_GT(o.fedsv_loss_calls, 0);
  EXPECT_GT(o.comfedsv->loss_calls, 0);
  EXPECT_GT(o.ground_truth_loss_calls, o.comfedsv->loss_calls);
  EXPECT_EQ(o.training.rounds_run, 5);
}

TEST(PipelineTest, SubsetsOfMetricsCanBeRequested) {
  Workload w = MakeWorkload(4, 75);
  LogisticRegression model(w.test.dim(), 10);
  ValuationRequest req;
  req.compute_fedsv = true;
  req.compute_comfedsv = false;
  req.compute_ground_truth = false;
  Result<ValuationOutcome> outcome = RunValuation(
      model, w.clients, w.test, FedConfig(3, 2, 77), req);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().fedsv_values.has_value());
  EXPECT_FALSE(outcome.value().comfedsv.has_value());
  EXPECT_FALSE(outcome.value().ground_truth_values.has_value());
}

TEST(PipelineTest, RequiresAssumption1ForFullComFedSv) {
  Workload w = MakeWorkload(4, 79);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg = FedConfig(3, 2, 81);
  cfg.select_all_first_round = false;
  Result<ValuationOutcome> outcome =
      RunValuation(model, w.clients, w.test, cfg, DefaultRequest());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, SampledModeWorksWithoutAssumption1Requirement) {
  Workload w = MakeWorkload(5, 83);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg = FedConfig(4, 2, 85);
  // Keep Assumption 1 on (Algorithm 1 requires it for observability),
  // but use the sampled pipeline and no ground truth.
  ValuationRequest req;
  req.compute_fedsv = false;
  req.compute_comfedsv = true;
  req.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  req.comfedsv.num_permutations = 50;
  req.comfedsv.completion.rank = 3;
  req.comfedsv.completion.lambda = 1e-4;
  req.compute_ground_truth = false;
  Result<ValuationOutcome> outcome =
      RunValuation(model, w.clients, w.test, cfg, req);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome.value().comfedsv.has_value());
  EXPECT_GT(outcome.value().comfedsv->num_columns, 0);
  EXPECT_LT(outcome.value().comfedsv->observed_density, 1.0);
}

TEST(PipelineTest, RejectsEmptyClientList) {
  Workload w = MakeWorkload(3, 87);
  LogisticRegression model(w.test.dim(), 10);
  Result<ValuationOutcome> outcome = RunValuation(
      model, {}, w.test, FedConfig(3, 2, 89), DefaultRequest());
  EXPECT_FALSE(outcome.ok());
}

TEST(PipelineTest, DeterministicAcrossRuns) {
  Workload w = MakeWorkload(4, 91);
  LogisticRegression model(w.test.dim(), 10);
  ValuationRequest req = DefaultRequest();
  req.compute_ground_truth = false;
  Result<ValuationOutcome> a = RunValuation(
      model, w.clients, w.test, FedConfig(4, 2, 93), req);
  Result<ValuationOutcome> b = RunValuation(
      model, w.clients, w.test, FedConfig(4, 2, 93), req);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a.value().fedsv_values == *b.value().fedsv_values);
  EXPECT_TRUE(a.value().comfedsv->values == b.value().comfedsv->values);
}

TEST(PipelineTest, NoisyClientRanksLowInGroundTruth) {
  // Quality-detection smoke test: corrupt one client's labels heavily;
  // the ground-truth valuation should rank it at (or near) the bottom.
  Workload w = MakeWorkload(5, 95);
  Rng rng(97);
  FlipLabels(&w.clients[2], 0.9, &rng);
  LogisticRegression model(w.test.dim(), 10);
  ValuationRequest req;
  req.compute_fedsv = false;
  req.compute_comfedsv = false;
  req.compute_ground_truth = true;
  Result<ValuationOutcome> outcome = RunValuation(
      model, w.clients, w.test, FedConfig(8, 3, 99), req);
  ASSERT_TRUE(outcome.ok());
  const Vector& values = *outcome.value().ground_truth_values;
  std::vector<int> bottom = BottomKIndices(values, 2);
  EXPECT_TRUE(bottom[0] == 2 || bottom[1] == 2)
      << "noisy client not in bottom 2";
}

// A request the recorders cannot serve must come back from every driver
// as InvalidArgument naming the field — never a CHECK abort, and before
// any file is touched.
void ExpectEveryDriverRejects(const ValuationRequest& req, int num_clients,
                              const std::string& field) {
  Workload w = MakeWorkload(2, 101);
  std::vector<Dataset> clients(num_clients, w.clients[0]);
  LogisticRegression model(w.test.dim(), 10);
  const FedAvgConfig cfg = FedConfig(2, 2, 103);

  Result<ValuationOutcome> plain =
      RunValuation(model, clients, w.test, cfg, req);
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plain.status().message().find(field), std::string::npos)
      << plain.status().ToString();

  CheckpointConfig ckpt;
  ckpt.path = ::testing::TempDir() + "comfedsv_rejected.ckpt";
  std::remove(ckpt.path.c_str());
  Result<ValuationOutcome> checkpointed =
      RunValuationCheckpointed(model, clients, w.test, cfg, req, ckpt);
  ASSERT_FALSE(checkpointed.ok());
  EXPECT_EQ(checkpointed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(checkpointed.status().message().find(field), std::string::npos);
  EXPECT_FALSE(FileEnv::Real()->Exists(ckpt.path));

  Result<ValuationOutcome> replayed = RunValuationFromLog(
      model, w.test, num_clients,
      ::testing::TempDir() + "comfedsv_rejected_missing.log", req);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replayed.status().message().find(field), std::string::npos);
}

TEST(PipelineTest, RejectsGroundTruthOverSixteenClients) {
  ValuationRequest req;
  req.compute_fedsv = false;
  req.compute_comfedsv = false;
  req.compute_ground_truth = true;
  ExpectEveryDriverRejects(req, 17, "compute_ground_truth");
}

TEST(PipelineTest, RejectsFullComFedSvOverTwentyClients) {
  ValuationRequest req;
  req.compute_fedsv = false;
  req.compute_comfedsv = true;
  req.comfedsv.mode = ComFedSvConfig::Mode::kFull;
  ExpectEveryDriverRejects(req, 21, "comfedsv.mode");
}

TEST(PipelineTest, RejectsNegativeTruncationTolerance) {
  ValuationRequest req;
  req.compute_fedsv = false;
  req.compute_comfedsv = true;
  req.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  req.comfedsv.sampler.kind = SamplerKind::kTruncated;
  req.comfedsv.sampler.truncation_tolerance = -0.5;
  ExpectEveryDriverRejects(req, 3, "comfedsv.sampler.truncation_tolerance");
}

// CheckpointManager CHECKs its durability options, so
// RunValuationCheckpointed must reject them as a Status first — and
// before any file is touched.
TEST(PipelineTest, RejectsInvalidCheckpointDurabilityOptions) {
  Workload w = MakeWorkload(2, 107);
  LogisticRegression model(w.test.dim(), 10);
  const std::string path =
      ::testing::TempDir() + "comfedsv_bad_durability.ckpt";
  std::remove(path.c_str());
  ValuationRequest req;
  req.compute_fedsv = true;
  req.compute_comfedsv = false;

  CheckpointConfig no_generations;
  no_generations.path = path;
  no_generations.keep_generations = 0;
  CheckpointConfig negative_retries;
  negative_retries.path = path;
  negative_retries.max_retries = -1;
  const std::pair<CheckpointConfig, std::string> cases[] = {
      {no_generations, "keep_generations"},
      {negative_retries, "max_retries"},
  };
  for (const auto& [ckpt, field] : cases) {
    Result<ValuationOutcome> outcome = RunValuationCheckpointed(
        model, w.clients, w.test, FedConfig(2, 2, 109), req, ckpt);
    ASSERT_FALSE(outcome.ok()) << field;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(outcome.status().message().find(field), std::string::npos)
        << outcome.status().ToString();
    EXPECT_FALSE(FileEnv::Real()->Exists(path));
  }
}

}  // namespace
}  // namespace comfedsv
