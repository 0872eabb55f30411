// End-to-end RunValuation pipeline tests.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "core/streaming.h"
#include "data/image_sim.h"
#include "data/noise.h"
#include "data/partition.h"
#include "io/checkpoint_manager.h"
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

// Checkpoints live in `path.<seq>` generation files, never at `path`.
bool HasGenerations(const std::string& path) {
  return !CheckpointManager(path).ListGenerations().empty();
}

void RemoveGenerations(const std::string& path) {
  for (const auto& [seq, file] : CheckpointManager(path).ListGenerations()) {
    std::remove(file.c_str());
  }
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
  EXPECT_GT(o.fedsv_stats.loss_calls, 0);
  EXPECT_GT(o.comfedsv->stats.loss_calls, 0);
  EXPECT_GT(o.ground_truth_stats.loss_calls, o.comfedsv->stats.loss_calls);
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

// A request the evaluators cannot serve must come back from every driver
// as InvalidArgument naming the field — never a CHECK abort, and before
// any file is touched. The engine is a driver too: it is public, so it
// builds no evaluator for such a request and every Status-returning
// entry point reports it.
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
  RemoveGenerations(ckpt.path);
  Result<ValuationOutcome> checkpointed =
      RunValuationCheckpointed(model, clients, w.test, cfg, req, ckpt);
  ASSERT_FALSE(checkpointed.ok());
  EXPECT_EQ(checkpointed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(checkpointed.status().message().find(field), std::string::npos);
  EXPECT_FALSE(HasGenerations(ckpt.path));

  Result<ValuationOutcome> replayed = RunValuationFromLog(
      model, w.test, num_clients,
      ::testing::TempDir() + "comfedsv_rejected_missing.log", req);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replayed.status().message().find(field), std::string::npos);

  StreamingConfig config;
  config.request = req;
  StreamingValuationEngine engine(&model, &w.test, num_clients, config);
  auto expect_rejected = [&field](const Status& status, const char* call) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << call;
    EXPECT_NE(status.message().find(field), std::string::npos)
        << call << ": " << status.ToString();
  };
  expect_rejected(engine.Consume(RoundRecord{}), "Consume");
  expect_rejected(engine.Snapshot().status(), "Snapshot");
  expect_rejected(engine.Finalize().status(), "Finalize");
  CheckpointManager manager(ckpt.path);
  expect_rejected(engine.SaveCheckpoint(&manager), "SaveCheckpoint");
  EXPECT_FALSE(HasGenerations(ckpt.path));
  expect_rejected(engine.RestoreCheckpoint(&manager), "RestoreCheckpoint");
  EXPECT_EQ(engine.rounds_consumed(), 0);
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

// NaN < 0 is false, so a NaN tolerance used to pass validation and make
// every truncated walk run to the end; +inf stopped every walk after one
// player. Both returned Ok; a negative tolerance used to abort at the
// first round.
TEST(PipelineTest, RejectsOutOfRangeTruncationTolerance) {
  for (double tolerance : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(tolerance);
    ValuationRequest req;
    req.compute_fedsv = false;
    req.compute_comfedsv = true;
    req.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
    req.comfedsv.sampler.kind = SamplerKind::kTruncated;
    req.comfedsv.sampler.truncation_tolerance = tolerance;
    ExpectEveryDriverRejects(req, 3,
                             "comfedsv.sampler.truncation_tolerance");

    req.compute_fedsv = true;
    req.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
    req.fedsv.sampler = req.comfedsv.sampler;
    req.compute_comfedsv = false;
    ExpectEveryDriverRejects(req, 3, "fedsv.sampler.truncation_tolerance");
  }
}

// A NaN learning rate used to train every round and return Ok; the
// trainer now refuses it before the first round.
TEST(PipelineTest, RejectsNonFiniteLearningRate) {
  Workload w = MakeWorkload(3, 109);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg = FedConfig(2, 2, 111);
  cfg.lr = LearningRateSchedule::Constant(
      std::numeric_limits<double>::quiet_NaN());
  ValuationRequest req;
  req.compute_fedsv = true;
  req.compute_comfedsv = true;
  Result<ValuationOutcome> outcome =
      RunValuation(model, w.clients, w.test, cfg, req);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outcome.status().message().find("lr.base"), std::string::npos)
      << outcome.status().ToString();
}

// A completion config the solver sweeps cannot serve used to pass
// validation, train every round and then abort in the first ALS row
// solve ("normal equations not positive definite").
TEST(PipelineTest, RejectsNonFiniteCompletionLambda) {
  ValuationRequest req;
  req.compute_fedsv = false;
  req.compute_comfedsv = true;
  req.comfedsv.completion.lambda = std::numeric_limits<double>::quiet_NaN();
  ExpectEveryDriverRejects(req, 3, "comfedsv.completion.lambda");
}

// Checkpoints carry the request fingerprint, so a config change that
// moves it makes every existing checkpoint unresumable. The values below
// were computed before the third completion solver and its step size
// were retired; MixCompletion still mixes the step size's old default
// in its slot.
TEST(PipelineTest, RequestFingerprintsAreStable) {
  EXPECT_EQ(RequestFingerprint(ValuationRequest{}), 0xe112cd92836df426ULL);

  ValuationRequest req;
  req.compute_fedsv = true;
  req.compute_comfedsv = true;
  req.comfedsv.completion.rank = 3;
  req.comfedsv.completion.lambda = 1e-4;
  req.comfedsv.completion.temporal_smoothing = 0.1;
  EXPECT_EQ(RequestFingerprint(req), 0xdb7fd058503ca1d5ULL);

  req.comfedsv.completion.solver = CompletionSolver::kCcd;
  req.comfedsv.completion.temporal_smoothing = 0.0;
  EXPECT_EQ(RequestFingerprint(req), 0x2b11252af9bb15bdULL);
}

// RunValuationCheckpointed must reject out-of-range durability options
// as a Status naming the field, before any file is touched.
TEST(PipelineTest, RejectsInvalidCheckpointDurabilityOptions) {
  Workload w = MakeWorkload(2, 107);
  LogisticRegression model(w.test.dim(), 10);
  const std::string path =
      ::testing::TempDir() + "comfedsv_bad_durability.ckpt";
  RemoveGenerations(path);
  ValuationRequest req;
  req.compute_fedsv = true;
  req.compute_comfedsv = false;

  CheckpointConfig no_generations;
  no_generations.path = path;
  no_generations.keep_generations = 0;
  CheckpointConfig negative_retries;
  negative_retries.path = path;
  negative_retries.max_retries = -1;
  CheckpointConfig negative_backoff;
  negative_backoff.path = path;
  negative_backoff.retry_backoff_ms = -1;
  const std::pair<CheckpointConfig, std::string> cases[] = {
      {no_generations, "keep_generations"},
      {negative_retries, "max_retries"},
      {negative_backoff, "retry_backoff_ms"},
  };
  for (const auto& [ckpt, field] : cases) {
    Result<ValuationOutcome> outcome = RunValuationCheckpointed(
        model, w.clients, w.test, FedConfig(2, 2, 109), req, ckpt);
    ASSERT_FALSE(outcome.ok()) << field;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(outcome.status().message().find(field), std::string::npos)
        << outcome.status().ToString();
    EXPECT_FALSE(HasGenerations(path));
  }
}

// A config value must never reach a CHECK: a resolve cadence below 1
// surfaces from Snapshot() as InvalidArgument naming the field, while
// the engine still consumes rounds and Finalize() (which never reads the
// cadence) still values them.
TEST(PipelineTest, StreamingSnapshotRejectsResolveCadenceBelowOne) {
  Workload w = MakeWorkload(4, 111);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig fed = FedConfig(1, 2, 113);
  fed.select_all_first_round = true;
  for (int cadence : {0, -1}) {
    StreamingConfig config;
    config.request = DefaultRequest();
    config.resolve_cadence = cadence;
    FedAvgTrainer trainer(&model, w.clients, w.test, fed);
    StreamingValuationEngine engine(&model, &trainer.test_data(), 4,
                                    config);
    ASSERT_TRUE(trainer.Begin().ok());
    ASSERT_TRUE(engine.Consume(trainer.Step()).ok());
    Result<ValuationOutcome> snapshot = engine.Snapshot();
    ASSERT_FALSE(snapshot.ok()) << cadence;
    EXPECT_EQ(snapshot.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(snapshot.status().message().find(
                  "StreamingConfig::resolve_cadence"),
              std::string::npos)
        << snapshot.status().ToString();
    Result<ValuationOutcome> final_outcome = engine.Finalize();
    ASSERT_TRUE(final_outcome.ok()) << final_outcome.status().ToString();
    EXPECT_EQ(final_outcome.value().comfedsv->values.size(), 4u);
  }
}

// The kValuationCheckpoint decoder, swept over a real payload that holds
// every evaluator state: every truncation must fail, and every flipped
// byte must come back as a Status — a corrupt payload never reaches a
// CHECK.
TEST(PipelineTest, ValuationCheckpointDecoderSurvivesEveryCorruption) {
  constexpr int kClients = 4;
  SimulatedImageConfig data_cfg;
  data_cfg.num_samples = 20 * kClients + 20;
  data_cfg.image_side = 2;
  data_cfg.num_classes = 2;
  data_cfg.seed = 117;
  Dataset pool = GenerateSimulatedImages(data_cfg);
  Rng rng(118);
  auto [train_pool, test] = pool.RandomSplit(0.2, &rng);
  const std::vector<Dataset> clients =
      PartitionIid(train_pool, kClients, &rng);
  LogisticRegression model(test.dim(), 2);

  FedAvgConfig fed = FedConfig(2, 2, 119);
  fed.select_all_first_round = true;
  ValuationRequest request;
  request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  request.fedsv.permutations_per_round = 4;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 4;
  request.compute_ground_truth = true;

  FedAvgTrainer trainer(&model, clients, test, fed);
  FedSvEvaluator fedsv(&model, &trainer.test_data(), kClients,
                       request.fedsv);
  ComFedSvEvaluator comfedsv(&model, &trainer.test_data(), kClients,
                             request.comfedsv);
  GroundTruthEvaluator truth(&model, &trainer.test_data(), kClients);
  ASSERT_TRUE(trainer.Begin().ok());
  while (!trainer.Done()) {
    const RoundRecord& record = trainer.Step();
    fedsv.OnRound(record);
    comfedsv.OnRound(record);
    truth.OnRound(record);
  }
  const uint64_t fingerprint = ValuationFingerprint(trainer, request);
  const std::string payload = SerializeValuationCheckpoint(
      fingerprint, trainer, &fedsv, &comfedsv, &truth);

  auto restore = [&](std::string_view bytes) {
    FedAvgTrainer t(&model, clients, test, fed);
    FedSvEvaluator f(&model, &t.test_data(), kClients, request.fedsv);
    ComFedSvEvaluator c(&model, &t.test_data(), kClients,
                        request.comfedsv);
    GroundTruthEvaluator g(&model, &t.test_data(), kClients);
    return RestoreValuationCheckpoint(bytes, fingerprint, &t, &f, &c, &g);
  };
  ASSERT_TRUE(restore(payload).ok());
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    EXPECT_FALSE(restore(std::string_view(payload).substr(0, keep)).ok())
        << "accepted truncation to " << keep;
  }
  size_t rejected = 0;
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    std::string corrupted = payload;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x5A);
    if (!restore(corrupted).ok()) ++rejected;
  }
  // Flips inside a stored double can decode to another valid state;
  // flips in the framing and counters cannot.
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace comfedsv
