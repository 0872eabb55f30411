// Determinism regression: the full valuation pipeline must produce
// bit-identical FedSV / ComFedSV / ground-truth vectors whether it runs
// inline (no context), on a single-threaded context, or on a
// multi-threaded one. This is the contract that makes the
// ExecutionContext parallelism safe to enable everywhere.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/execution_context.h"
#include "common/failpoint.h"
#include "completion/solver.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "data/image_sim.h"
#include "data/partition.h"
#include "io/checkpoint_manager.h"
#include "io/file_env.h"
#include "io/serialize.h"
#include "models/cnn.h"
#include "models/logistic.h"
#include "models/mlp.h"

namespace comfedsv {
namespace {

struct Workload {
  std::vector<Dataset> clients;
  Dataset test;
};

Workload MakeWorkload(int num_clients, uint64_t seed) {
  SimulatedImageConfig cfg;
  cfg.num_samples = 40 * num_clients + 120;
  cfg.seed = seed;
  Dataset pool = GenerateSimulatedImages(cfg);
  Rng rng(seed + 1);
  auto [train_pool, test] = pool.RandomSplit(0.25, &rng);
  return {PartitionIid(train_pool, num_clients, &rng), std::move(test)};
}

void ExpectBitIdentical(const Vector& a, const Vector& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " diverges at client " << i;
  }
}

// Every cost counter, not just loss_calls: the counters are part of the
// checkpointed state, so resume and thread count must not move any.
void ExpectStatsEqual(const UtilityStats& a, const UtilityStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.loss_calls, b.loss_calls) << what << " loss_calls";
  EXPECT_EQ(a.batched_calls, b.batched_calls) << what << " batched_calls";
  EXPECT_EQ(a.memo_hits, b.memo_hits) << what << " memo_hits";
}

ValuationOutcome RunWith(const Workload& w, const Model& model,
                         const FedAvgConfig& fed_cfg,
                         const ValuationRequest& request,
                         ExecutionContext* ctx) {
  Result<ValuationOutcome> run =
      RunValuation(model, w.clients, w.test, fed_cfg, request, ctx);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return std::move(run).value();
}

/// A fault-injecting file system that crashes on the `crash_at`-th
/// checkpoint save. A save is counted by its write of a `stem.<seq>.tmp`
/// generation file; other writes through the same disk, such as the
/// round log's header and index, do not count.
class CrashOnSaveEnv : public FaultInjectingFileEnv {
 public:
  CrashOnSaveEnv(const std::string& stem, int crash_at)
      : prefix_(stem + "."), crash_at_(crash_at) {}

  Status WriteFile(const std::string& path, std::string_view data) override {
    if (path.starts_with(prefix_) && path.ends_with(".tmp") &&
        ++saves_ == crash_at_) {
      FailpointRegistry::Global().Arm(failpoints::kWriteFile,
                                      FailpointTrigger::OnHit(1),
                                      static_cast<int>(FaultAction::kCrash));
    }
    return FaultInjectingFileEnv::WriteFile(path, data);
  }

 private:
  std::string prefix_;
  int crash_at_;
  int saves_ = 0;
};

/// Kills a checkpointed run right after the save for round `round` went
/// durable: the next checkpoint save crashes a fault-injecting file
/// system, and require_durable aborts the run there — a kill -9 at that
/// point, as far as the checkpoint files can tell. Returns the aborted
/// run's status.
Status CrashAfterRound(const Workload& w, const Model& model,
                       const FedAvgConfig& fed_cfg,
                       const ValuationRequest& request,
                       CheckpointConfig ckpt, int round,
                       ExecutionContext* ctx = nullptr) {
  CrashOnSaveEnv fault(ckpt.path, round / ckpt.every_rounds + 1);
  ckpt.env = &fault;
  ckpt.require_durable = true;
  Result<ValuationOutcome> run = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, ckpt, ctx);
  FailpointRegistry::Global().ClearAll();
  EXPECT_TRUE(fault.crashed()) << "the run ended before round " << round;
  return run.status();
}

/// Removes every checkpoint generation `path.<seq>` a run left behind.
void RemoveGenerations(const std::string& path) {
  for (const auto& [seq, file] : CheckpointManager(path).ListGenerations()) {
    std::remove(file.c_str());
  }
}

TEST(DeterminismTest, SampledPipelineIsThreadCountInvariant) {
  const int n = 5;
  Workload w = MakeWorkload(n, 321);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 4;
  fed_cfg.clients_per_round = 3;
  fed_cfg.seed = 11;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  request.fedsv.permutations_per_round = 8;
  request.fedsv.seed = 12;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 6;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 40;
  request.comfedsv.seed = 13;

  ValuationOutcome inline_run = RunWith(w, model, fed_cfg, request, nullptr);
  ExecutionContext single(1);
  ValuationOutcome single_run = RunWith(w, model, fed_cfg, request, &single);
  ExecutionContext threaded(4);
  ValuationOutcome threaded_run =
      RunWith(w, model, fed_cfg, request, &threaded);

  ASSERT_TRUE(inline_run.fedsv_values.has_value());
  ASSERT_TRUE(threaded_run.fedsv_values.has_value());
  ExpectBitIdentical(*inline_run.fedsv_values, *single_run.fedsv_values,
                     "FedSV inline vs threads=1");
  ExpectBitIdentical(*inline_run.fedsv_values, *threaded_run.fedsv_values,
                     "FedSV inline vs threads=4");

  ASSERT_TRUE(inline_run.comfedsv.has_value());
  ASSERT_TRUE(threaded_run.comfedsv.has_value());
  ExpectBitIdentical(inline_run.comfedsv->values,
                     single_run.comfedsv->values,
                     "ComFedSV inline vs threads=1");
  ExpectBitIdentical(inline_run.comfedsv->values,
                     threaded_run.comfedsv->values,
                     "ComFedSV inline vs threads=4");

  // Every cost counter is thread-count invariant too: loss calls count
  // distinct coalitions, whichever thread evaluates them.
  ExpectStatsEqual(inline_run.fedsv_stats, threaded_run.fedsv_stats,
                   "FedSV");
  ExpectStatsEqual(inline_run.comfedsv->stats, threaded_run.comfedsv->stats,
                   "ComFedSV");

  // Training itself must match too (pre-split per-client RNG streams).
  ExpectBitIdentical(inline_run.training.final_params,
                     threaded_run.training.final_params,
                     "final params inline vs threads=4");
}

TEST(DeterminismTest, SamplerPipelinesAreThreadCountInvariant) {
  // Every non-default permutation sampler (antithetic pairs, stratified
  // rotation blocks, truncated walks) must keep the whole pipeline —
  // Monte-Carlo FedSV walks and the sampled ComFedSV recorder —
  // bit-identical across thread counts {1, 4} and inline execution.
  // Orderings are drawn up front from the seed, and the truncated wave
  // walk decides from utilities only, so nothing may depend on
  // scheduling.
  const int n = 5;
  Workload w = MakeWorkload(n, 555);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 4;
  fed_cfg.clients_per_round = 3;
  fed_cfg.seed = 61;

  for (SamplerKind kind :
       {SamplerKind::kAntithetic, SamplerKind::kStratified,
        SamplerKind::kTruncated}) {
    SCOPED_TRACE(SamplerKindName(kind));
    ValuationRequest request;
    request.compute_fedsv = true;
    request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
    request.fedsv.permutations_per_round = 7;
    request.fedsv.sampler.kind = kind;
    request.fedsv.sampler.truncation_tolerance = 0.02;
    request.fedsv.seed = 62;
    request.compute_comfedsv = true;
    request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
    request.comfedsv.num_permutations = 6;
    request.comfedsv.sampler.kind = kind;
    request.comfedsv.sampler.truncation_tolerance = 0.02;
    request.comfedsv.completion.rank = 2;
    request.comfedsv.completion.lambda = 1e-3;
    request.comfedsv.completion.max_iters = 30;
    request.comfedsv.seed = 63;

    ValuationOutcome inline_run =
        RunWith(w, model, fed_cfg, request, nullptr);
    ExecutionContext single(1);
    ValuationOutcome single_run =
        RunWith(w, model, fed_cfg, request, &single);
    ExecutionContext threaded(4);
    ValuationOutcome threaded_run =
        RunWith(w, model, fed_cfg, request, &threaded);

    ASSERT_TRUE(inline_run.fedsv_values.has_value());
    ExpectBitIdentical(*inline_run.fedsv_values, *single_run.fedsv_values,
                       "sampler FedSV inline vs threads=1");
    ExpectBitIdentical(*inline_run.fedsv_values,
                       *threaded_run.fedsv_values,
                       "sampler FedSV inline vs threads=4");
    ASSERT_TRUE(inline_run.comfedsv.has_value());
    ExpectBitIdentical(inline_run.comfedsv->values,
                       single_run.comfedsv->values,
                       "sampler ComFedSV inline vs threads=1");
    ExpectBitIdentical(inline_run.comfedsv->values,
                       threaded_run.comfedsv->values,
                       "sampler ComFedSV inline vs threads=4");
    ExpectStatsEqual(inline_run.fedsv_stats, threaded_run.fedsv_stats,
                     "sampler FedSV");
    ExpectStatsEqual(inline_run.comfedsv->stats,
                     threaded_run.comfedsv->stats, "sampler ComFedSV");
  }
}

TEST(DeterminismTest, BatchedEngineMlpPipelineIsThreadCountInvariant) {
  // Runs the full pipeline through the batched coalition-loss engine
  // with the Mlp override (packed layer-0 kernel + shared forward tail):
  // exact FedSV prefetches the subset lattice, the sampled recorder
  // batches its permutation prefixes, and every output must stay
  // bit-identical across thread counts.
  const int n = 4;
  Workload w = MakeWorkload(n, 432);
  Mlp model({w.test.dim(), 12, 10}, 1e-4);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 3;
  fed_cfg.clients_per_round = 3;
  fed_cfg.seed = 41;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.fedsv.seed = 42;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 5;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 30;
  request.comfedsv.seed = 43;

  ValuationOutcome inline_run = RunWith(w, model, fed_cfg, request, nullptr);
  ExecutionContext single(1);
  ValuationOutcome single_run = RunWith(w, model, fed_cfg, request, &single);
  ExecutionContext threaded(4);
  ValuationOutcome threaded_run =
      RunWith(w, model, fed_cfg, request, &threaded);

  ASSERT_TRUE(inline_run.fedsv_values.has_value());
  ExpectBitIdentical(*inline_run.fedsv_values, *single_run.fedsv_values,
                     "MLP FedSV inline vs threads=1");
  ExpectBitIdentical(*inline_run.fedsv_values, *threaded_run.fedsv_values,
                     "MLP FedSV inline vs threads=4");
  ASSERT_TRUE(inline_run.comfedsv.has_value());
  ExpectBitIdentical(inline_run.comfedsv->values,
                     threaded_run.comfedsv->values,
                     "MLP ComFedSV inline vs threads=4");
  ExpectStatsEqual(inline_run.fedsv_stats, threaded_run.fedsv_stats,
                   "FedSV");
  ExpectStatsEqual(inline_run.comfedsv->stats, threaded_run.comfedsv->stats,
                   "ComFedSV");
}

TEST(DeterminismTest, BatchedEngineCnnPipelineIsThreadCountInvariant) {
  // The same through the Cnn override (coalition-lane kernel over
  // (lane block x sample chunk) tasks): exact FedSV and full ComFedSV
  // batch every subset of each round's selected set, and the all-client
  // round 0 fills several lane blocks while later rounds leave a short
  // last one.
  const int n = 5;
  Workload w = MakeWorkload(n, 543);
  CnnConfig cnn_cfg;
  cnn_cfg.image_side = 8;
  cnn_cfg.channels = 1;
  cnn_cfg.num_filters = 3;
  cnn_cfg.num_classes = 10;
  cnn_cfg.l2_penalty = 1e-4;
  Cnn model(cnn_cfg);
  ASSERT_EQ(model.input_dim(), w.test.dim());

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 3;
  fed_cfg.clients_per_round = 3;
  fed_cfg.select_all_first_round = true;
  fed_cfg.seed = 51;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.fedsv.seed = 52;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kFull;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 30;
  request.comfedsv.seed = 53;

  ValuationOutcome inline_run = RunWith(w, model, fed_cfg, request, nullptr);
  ExecutionContext single(1);
  ValuationOutcome single_run = RunWith(w, model, fed_cfg, request, &single);
  ExecutionContext threaded(4);
  ValuationOutcome threaded_run =
      RunWith(w, model, fed_cfg, request, &threaded);

  ASSERT_TRUE(inline_run.fedsv_values.has_value());
  ExpectBitIdentical(*inline_run.fedsv_values, *single_run.fedsv_values,
                     "CNN FedSV inline vs threads=1");
  ExpectBitIdentical(*inline_run.fedsv_values, *threaded_run.fedsv_values,
                     "CNN FedSV inline vs threads=4");
  ASSERT_TRUE(inline_run.comfedsv.has_value());
  ExpectBitIdentical(inline_run.comfedsv->values,
                     single_run.comfedsv->values,
                     "CNN ComFedSV inline vs threads=1");
  ExpectBitIdentical(inline_run.comfedsv->values,
                     threaded_run.comfedsv->values,
                     "CNN ComFedSV inline vs threads=4");
  ExpectStatsEqual(inline_run.fedsv_stats, threaded_run.fedsv_stats,
                   "CNN FedSV");
  ExpectStatsEqual(inline_run.comfedsv->stats, threaded_run.comfedsv->stats,
                   "CNN ComFedSV");
}

TEST(DeterminismTest, SmoothedAlsCompletionIsThreadCountInvariant) {
  // Temporal smoothing forces the W-side Gauss–Seidel sweep down its
  // sequential path while the H-side still fans out; the mix must stay
  // deterministic.
  const int n = 5;
  Workload w = MakeWorkload(n, 654);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 3;
  fed_cfg.clients_per_round = 3;
  fed_cfg.seed = 21;

  ValuationRequest request;
  request.compute_fedsv = false;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 5;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.temporal_smoothing = 0.1;
  request.comfedsv.completion.max_iters = 30;
  request.comfedsv.seed = 22;

  ValuationOutcome inline_run = RunWith(w, model, fed_cfg, request, nullptr);
  ExecutionContext threaded(4);
  ValuationOutcome threaded_run =
      RunWith(w, model, fed_cfg, request, &threaded);

  ASSERT_TRUE(inline_run.comfedsv.has_value());
  ASSERT_TRUE(threaded_run.comfedsv.has_value());
  ExpectBitIdentical(inline_run.comfedsv->values,
                     threaded_run.comfedsv->values,
                     "smoothed ComFedSV inline vs threads=4");
}

TEST(DeterminismTest, CompletionSolversAreThreadCountInvariant) {
  // Every completion solver (ALS, ALS + temporal smoothing with its
  // red-black W-side, CCD++'s phased residual refits) must produce
  // bit-identical factors inline, on a single-threaded context, and on a
  // 4-thread context. The observation set is large enough that every
  // full-rank sweep clears the inline cutoff and spans several fixed
  // blocks, so the 4-thread fits really run the parallel paths.
  const int rows = 240, cols = 300, true_rank = 3;
  Rng rng(2024);
  Matrix a(rows, true_rank), b(true_rank, cols);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < true_rank; ++k) a(i, k) = rng.NextGaussian();
  }
  for (int k = 0; k < true_rank; ++k) {
    for (size_t j = 0; j < b.cols(); ++j) b(k, j) = rng.NextGaussian();
  }
  Matrix truth = Matrix::Multiply(a, b);
  ObservationSet obs(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.NextBernoulli(0.3)) obs.Add(i, j, truth(i, j));
    }
  }
  obs.Finalize();
  // The cheapest full-rank sweep is a CCD++ phase (2 per entry plus 1 per
  // row or column); an ALS pass at rank 4, even one red-black color,
  // estimates more. Fail here rather than silently test inline code.
  ASSERT_GE(2.0 * static_cast<double>(obs.size()), kParallelSweepWork);

  struct Variant {
    const char* name;
    CompletionSolver solver;
    double mu;
  };
  const Variant variants[] = {
      {"als", CompletionSolver::kAls, 0.0},
      {"als+mu", CompletionSolver::kAls, 0.1},
      {"ccd++", CompletionSolver::kCcd, 0.0},
  };
  for (const Variant& v : variants) {
    CompletionConfig cfg;
    cfg.rank = 4;
    cfg.lambda = 1e-3;
    cfg.max_iters = 15;
    cfg.temporal_smoothing = v.mu;
    cfg.solver = v.solver;
    cfg.seed = 7;
    cfg.verify_fused_objective = true;

    Result<CompletionResult> inline_fit = CompleteMatrix(obs, cfg, nullptr);
    ASSERT_TRUE(inline_fit.ok()) << v.name;
    ExecutionContext single(1);
    Result<CompletionResult> single_fit = CompleteMatrix(obs, cfg, &single);
    ASSERT_TRUE(single_fit.ok()) << v.name;
    ExecutionContext threaded(4);
    Result<CompletionResult> threaded_fit =
        CompleteMatrix(obs, cfg, &threaded);
    ASSERT_TRUE(threaded_fit.ok()) << v.name;

    EXPECT_TRUE(inline_fit.value().w == single_fit.value().w)
        << v.name << " W inline vs threads=1";
    EXPECT_TRUE(inline_fit.value().h == single_fit.value().h)
        << v.name << " H inline vs threads=1";
    EXPECT_TRUE(inline_fit.value().w == threaded_fit.value().w)
        << v.name << " W inline vs threads=4";
    EXPECT_TRUE(inline_fit.value().h == threaded_fit.value().h)
        << v.name << " H inline vs threads=4";
    EXPECT_EQ(inline_fit.value().iterations,
              threaded_fit.value().iterations)
        << v.name;
    EXPECT_EQ(inline_fit.value().objective,
              threaded_fit.value().objective)
        << v.name;
  }
}

void ExpectOutcomesBitIdentical(const ValuationOutcome& a,
                                const ValuationOutcome& b,
                                const char* what) {
  ASSERT_EQ(a.fedsv_values.has_value(), b.fedsv_values.has_value()) << what;
  if (a.fedsv_values.has_value()) {
    ExpectBitIdentical(*a.fedsv_values, *b.fedsv_values, what);
    ExpectStatsEqual(a.fedsv_stats, b.fedsv_stats,
                     std::string(what) + " FedSV");
  }
  ASSERT_EQ(a.comfedsv.has_value(), b.comfedsv.has_value()) << what;
  if (a.comfedsv.has_value()) {
    ExpectBitIdentical(a.comfedsv->values, b.comfedsv->values, what);
    ExpectStatsEqual(a.comfedsv->stats, b.comfedsv->stats,
                     std::string(what) + " ComFedSV");
    EXPECT_TRUE(a.comfedsv->completion.w == b.comfedsv->completion.w)
        << what << " completion W";
    EXPECT_TRUE(a.comfedsv->completion.h == b.comfedsv->completion.h)
        << what << " completion H";
  }
  ASSERT_EQ(a.ground_truth_values.has_value(),
            b.ground_truth_values.has_value())
      << what;
  if (a.ground_truth_values.has_value()) {
    ExpectBitIdentical(*a.ground_truth_values, *b.ground_truth_values,
                       what);
    ExpectStatsEqual(a.ground_truth_stats, b.ground_truth_stats,
                     std::string(what) + " ground truth");
  }
}

TEST(DeterminismTest, ResumeFromCheckpointIsBitIdentical) {
  // Kill-at-round-t → resume must equal the straight run bit for bit,
  // for every evaluator (MC FedSV, sampled ComFedSV, ground truth), on
  // both a single-threaded and a 4-thread context: per-round RNG streams
  // re-derive from (seed, round, client) and every sequential stream —
  // client selection, the FedSV permutation stream, recorder
  // accumulations — is part of the checkpoint.
  const int n = 5;
  Workload w = MakeWorkload(n, 777);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 5;
  fed_cfg.clients_per_round = 3;
  fed_cfg.seed = 71;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  request.fedsv.permutations_per_round = 6;
  request.fedsv.seed = 72;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 6;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 30;
  request.comfedsv.seed = 73;
  request.compute_ground_truth = true;

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecutionContext straight_ctx(threads);
    ValuationOutcome straight =
        RunWith(w, model, fed_cfg, request, &straight_ctx);

    for (int crash_round : {1, 3}) {
      SCOPED_TRACE("crash after round " + std::to_string(crash_round));
      const std::string path = ::testing::TempDir() +
                               "comfedsv_resume_t" +
                               std::to_string(threads) + "_r" +
                               std::to_string(crash_round) + ".ckpt";
      RemoveGenerations(path);

      CheckpointConfig ckpt;
      ckpt.path = path;
      ckpt.every_rounds = 1;
      ExecutionContext crash_ctx(threads);
      ASSERT_FALSE(CrashAfterRound(w, model, fed_cfg, request, ckpt,
                                   crash_round, &crash_ctx)
                       .ok());

      ExecutionContext resume_ctx(threads);
      Result<ValuationOutcome> resumed = RunValuationCheckpointed(
          model, w.clients, w.test, fed_cfg, request, ckpt, &resume_ctx);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

      ExpectOutcomesBitIdentical(resumed.value(), straight,
                                 "resumed vs straight");
      ExpectBitIdentical(resumed.value().training.final_params,
                         straight.training.final_params,
                         "resumed final params");
      EXPECT_EQ(resumed.value().training.test_loss_history,
                straight.training.test_loss_history);
      RemoveGenerations(path);
    }
  }
}

TEST(DeterminismTest, CheckpointedRunWithoutCrashMatchesPlainRun) {
  // The checkpoint writes themselves must not perturb the run, and a
  // completed checkpointed run equals the plain pipeline bit for bit.
  const int n = 4;
  Workload w = MakeWorkload(n, 888);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 3;
  fed_cfg.clients_per_round = 2;
  fed_cfg.seed = 81;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.fedsv.seed = 82;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kFull;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 30;
  request.comfedsv.seed = 83;

  ValuationOutcome plain = RunWith(w, model, fed_cfg, request, nullptr);

  const std::string path =
      ::testing::TempDir() + "comfedsv_nocrash.ckpt";
  RemoveGenerations(path);
  CheckpointConfig ckpt;
  ckpt.path = path;
  ckpt.every_rounds = 2;
  Result<ValuationOutcome> checkpointed = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, ckpt, nullptr);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().ToString();
  ExpectOutcomesBitIdentical(checkpointed.value(), plain,
                             "checkpointed vs plain");

  // Full-mode resume too: re-running from the final checkpoint replays
  // zero rounds and finalizes identically.
  Result<ValuationOutcome> resumed = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, ckpt, nullptr);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectOutcomesBitIdentical(resumed.value(), plain, "resumed-complete");
  RemoveGenerations(path);
}

TEST(DeterminismTest, CheckpointPayloadMatchesHandDrivenSerialization) {
  // The kValuationCheckpoint format is pinned: the file
  // RunValuationCheckpointed leaves after round k holds, byte for byte,
  // SerializeValuationCheckpoint over a trainer and evaluators driven
  // by hand to round k — so checkpoints written by earlier builds keep
  // resuming. The resume from that file must match the straight run.
  const int n = 4;
  Workload w = MakeWorkload(n, 2468);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 4;
  fed_cfg.clients_per_round = 2;
  fed_cfg.select_all_first_round = true;
  fed_cfg.seed = 2469;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  request.fedsv.permutations_per_round = 5;
  request.fedsv.seed = 2470;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 5;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 30;
  request.comfedsv.seed = 2471;
  request.compute_ground_truth = true;

  constexpr int kRound = 2;
  const std::string path = ::testing::TempDir() + "comfedsv_format.ckpt";
  RemoveGenerations(path);
  CheckpointConfig ckpt;
  ckpt.path = path;
  ASSERT_FALSE(
      CrashAfterRound(w, model, fed_cfg, request, ckpt, kRound).ok());
  const auto generations = CheckpointManager(path).ListGenerations();
  ASSERT_EQ(generations.size(), 1u);  // keep 1: the round-k save only
  Result<std::string> written = ReadCheckpointFile(
      generations.back().second, ChunkTag::kValuationCheckpoint);
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  FedAvgTrainer trainer(&model, w.clients, w.test, fed_cfg);
  FedSvEvaluator fedsv(&model, &trainer.test_data(), n, request.fedsv);
  ComFedSvEvaluator comfedsv(&model, &trainer.test_data(), n,
                             request.comfedsv);
  GroundTruthEvaluator ground_truth(&model, &trainer.test_data(), n);
  ASSERT_TRUE(trainer.Begin().ok());
  for (int round = 0; round < kRound; ++round) {
    const RoundRecord& record = trainer.Step();
    fedsv.OnRound(record);
    comfedsv.OnRound(record);
    ground_truth.OnRound(record);
  }
  const std::string expected = SerializeValuationCheckpoint(
      ValuationFingerprint(trainer, request), trainer, &fedsv, &comfedsv,
      &ground_truth);
  EXPECT_EQ(written.value().size(), expected.size());
  EXPECT_TRUE(written.value() == expected)
      << "checkpoint payload differs from the hand-driven serialization";

  ValuationOutcome straight = RunWith(w, model, fed_cfg, request, nullptr);
  Result<ValuationOutcome> resumed = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, ckpt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().health.resumed_sequence,
            static_cast<uint64_t>(kRound));  // the round-k save
  ExpectOutcomesBitIdentical(resumed.value(), straight,
                             "resumed from the pinned format vs straight");
  ExpectBitIdentical(resumed.value().training.final_params,
                     straight.training.final_params,
                     "resumed final params");
  EXPECT_EQ(resumed.value().training.test_loss_history,
            straight.training.test_loss_history);
  RemoveGenerations(path);
}

TEST(DeterminismTest, SpillingRunResumesFromTheCrashRound) {
  // With spill on, the round log's header and index writes go through
  // the same file write as the checkpoint saves. The crash still lands
  // on the save after round k, so the resume starts from round k and
  // finishes bit-identical to the straight run.
  const int n = 4;
  Workload w = MakeWorkload(n, 1357);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 5;
  fed_cfg.clients_per_round = 2;
  fed_cfg.seed = 1358;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.fedsv.seed = 1359;
  request.compute_comfedsv = false;

  constexpr int kRound = 3;
  const std::string path = ::testing::TempDir() + "comfedsv_spill_crash.ckpt";
  const std::string log = ::testing::TempDir() + "comfedsv_spill_crash.log";
  auto clean = [&] {
    RemoveGenerations(path);
    std::remove(log.c_str());
    std::remove((log + ".idx").c_str());
  };
  clean();
  CheckpointConfig ckpt;
  ckpt.path = path;
  ckpt.round_log_path = log;
  ckpt.round_log_index_every = 1;
  ASSERT_FALSE(
      CrashAfterRound(w, model, fed_cfg, request, ckpt, kRound).ok());

  Result<ValuationOutcome> resumed = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, ckpt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().health.resumed_sequence,
            static_cast<uint64_t>(kRound));  // the round-k save
  ValuationOutcome straight = RunWith(w, model, fed_cfg, request, nullptr);
  ExpectOutcomesBitIdentical(resumed.value(), straight,
                             "spilling resume vs straight");
  clean();
}

TEST(DeterminismTest, ResumeUnderDifferentDataOrModelIsRejected) {
  // The checkpoint fingerprint hashes full data contents and model
  // identity (incl. hyperparameters): a checkpoint saved under one run
  // must refuse to resume under regenerated data of the same shape or a
  // model with a different penalty — silently mixing two trajectories
  // would produce values wrong for both.
  const int n = 4;
  Workload w = MakeWorkload(n, 121);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 3;
  fed_cfg.clients_per_round = 2;
  fed_cfg.seed = 122;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.compute_comfedsv = false;

  const std::string path =
      ::testing::TempDir() + "comfedsv_fingerprint.ckpt";
  RemoveGenerations(path);
  CheckpointConfig ckpt;
  ckpt.path = path;
  ASSERT_FALSE(CrashAfterRound(w, model, fed_cfg, request, ckpt, 1).ok());

  // Same shapes, different data contents.
  Workload other = MakeWorkload(n, 131);
  ASSERT_EQ(other.clients[0].num_samples(), w.clients[0].num_samples());
  Result<ValuationOutcome> wrong_data = RunValuationCheckpointed(
      model, other.clients, other.test, fed_cfg, request, ckpt);
  ASSERT_FALSE(wrong_data.ok());
  EXPECT_EQ(wrong_data.status().code(), StatusCode::kFailedPrecondition);

  // Same parameter count, different hyperparameter.
  LogisticRegression other_model(w.test.dim(), 10, /*l2_penalty=*/0.5);
  Result<ValuationOutcome> wrong_model = RunValuationCheckpointed(
      other_model, w.clients, w.test, fed_cfg, request, ckpt);
  ASSERT_FALSE(wrong_model.ok());
  EXPECT_EQ(wrong_model.status().code(), StatusCode::kFailedPrecondition);

  // The original inputs still resume fine.
  Result<ValuationOutcome> ok_resume = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, ckpt);
  EXPECT_TRUE(ok_resume.ok()) << ok_resume.status().ToString();
  RemoveGenerations(path);
}

TEST(DeterminismTest, StreamingEngineMatchesBatchRunOnFullPrefix) {
  // Feeding the trainer's rounds through the StreamingValuationEngine —
  // taking a warm-started snapshot after every round along the way, and
  // a mid-stream save/restore through the engine's own checkpoint — must
  // leave Finalize() bit-identical to the batch RunValuation outputs on
  // the same trajectory.
  const int n = 4;
  Workload w = MakeWorkload(n, 999);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 4;
  fed_cfg.clients_per_round = 2;
  fed_cfg.seed = 91;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  request.fedsv.permutations_per_round = 5;
  request.fedsv.seed = 92;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 5;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 30;
  request.comfedsv.seed = 93;
  request.compute_ground_truth = true;

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecutionContext batch_ctx(threads);
    ValuationOutcome batch =
        RunWith(w, model, fed_cfg, request, &batch_ctx);

    ExecutionContext stream_ctx(threads);
    StreamingConfig streaming;
    streaming.request = request;
    streaming.resolve_cadence = 1;
    streaming.warm_start = true;
    StreamingValuationEngine engine(&model, &w.test, n, streaming,
                                    &stream_ctx);
    FedAvgTrainer trainer(&model, w.clients, w.test, fed_cfg, &stream_ctx);
    ASSERT_TRUE(trainer.Begin().ok());
    int snapshots_ok = 0;
    std::string engine_checkpoint;
    while (!trainer.Done()) {
      engine.OnRound(trainer.Step());
      // Warm-started intermediate snapshots must not disturb the final
      // batch-equivalent read.
      Result<ValuationOutcome> snap = engine.Snapshot();
      if (snap.ok()) {
        ++snapshots_ok;
        EXPECT_EQ(snap.value().training.rounds_run,
                  engine.rounds_consumed());
      }
      if (trainer.next_round() == 2) {
        BinaryWriter writer;
        engine.SaveState(&writer);
        engine_checkpoint = writer.buffer();
      }
    }
    EXPECT_EQ(engine.rounds_consumed(), fed_cfg.num_rounds);
    EXPECT_GE(snapshots_ok, fed_cfg.num_rounds - 1);

    Result<ValuationOutcome> streamed = engine.Finalize();
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ExpectOutcomesBitIdentical(streamed.value(), batch,
                               "streaming vs batch");

    // Restore the round-2 engine state into a fresh engine, replay the
    // remaining rounds, and check the same equivalence.
    ExecutionContext resume_ctx(threads);
    StreamingValuationEngine resumed_engine(&model, &w.test, n, streaming,
                                            &resume_ctx);
    BinaryReader reader(engine_checkpoint);
    ASSERT_TRUE(resumed_engine.RestoreState(&reader).ok());
    EXPECT_EQ(resumed_engine.rounds_consumed(), 2);
    FedAvgTrainer replay_trainer(&model, w.clients, w.test, fed_cfg,
                                 &resume_ctx);
    ASSERT_TRUE(replay_trainer.Begin().ok());
    while (!replay_trainer.Done()) {
      const RoundRecord& record = replay_trainer.Step();
      if (record.round >= 2) resumed_engine.OnRound(record);
    }
    Result<ValuationOutcome> resumed_streamed = resumed_engine.Finalize();
    ASSERT_TRUE(resumed_streamed.ok())
        << resumed_streamed.status().ToString();
    ExpectOutcomesBitIdentical(resumed_streamed.value(), batch,
                               "restored streaming vs batch");
  }
}

TEST(DeterminismTest, StreamingWarmSnapshotsTrackColdSolvesInFullMode) {
  // kFull mode is the case where the warm-start positional-row
  // alignment is subtle: the ObservedUtilityRecorder's interner grows
  // between re-solves, and CompleteMatrixWarm copies previous H rows by
  // column id — correct only because interned ids form a stable prefix
  // across round prefixes. Detection: cap warm re-solves at a handful
  // of sweeps. Correctly aligned warm factors (last round's fit plus
  // one new round) are already near a minimum, so a few sweeps reach a
  // fit comparable to a fully converged cold solve; misaligned rows
  // would start from effectively random factors and be nowhere near
  // converged after so few sweeps. (Exact value equality is not
  // expected — the sparse problem has multiple minima and warm/cold may
  // settle in different ones.)
  const int n = 4;
  Workload w = MakeWorkload(n, 246);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 5;
  fed_cfg.clients_per_round = 3;
  fed_cfg.select_all_first_round = true;
  fed_cfg.seed = 51;

  ValuationRequest request;
  request.compute_fedsv = false;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kFull;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 300;
  request.comfedsv.completion.tolerance = 1e-10;
  request.comfedsv.seed = 52;

  StreamingConfig streaming;
  streaming.request = request;
  streaming.resolve_cadence = 1;
  streaming.warm_start = true;
  streaming.warm_max_iters = 10;
  StreamingValuationEngine engine(&model, &w.test, n, streaming);
  FedAvgTrainer trainer(&model, w.clients, w.test, fed_cfg);
  ASSERT_TRUE(trainer.Begin().ok());
  while (!trainer.Done()) {
    engine.OnRound(trainer.Step());
    Result<ValuationOutcome> warm = engine.Snapshot();
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    if (engine.rounds_consumed() < 2) continue;  // first solve is cold
    Result<ValuationOutcome> cold = engine.Finalize();
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_TRUE(warm.value().comfedsv.has_value());
    ASSERT_TRUE(cold.value().comfedsv.has_value());
    const double warm_rmse =
        warm.value().comfedsv->completion.observed_rmse;
    const double cold_rmse =
        cold.value().comfedsv->completion.observed_rmse;
    // 10x covers legitimate early-round immaturity (the round-2 warm
    // factors have seen one round of data); a misaligned init would sit
    // orders of magnitude above the converged fit after 10 sweeps.
    EXPECT_LE(warm_rmse, 10.0 * cold_rmse + 1e-4)
        << "round " << engine.rounds_consumed()
        << ": 10 warm sweeps nowhere near the cold fit — misaligned "
           "warm-start rows?";
  }
}

// Drives the trainer through a StreamingValuationEngine, snapshotting
// after every round (which re-solves the completion), then finalizes.
ValuationOutcome RunStreaming(const Workload& w, const Model& model,
                              const FedAvgConfig& fed_cfg,
                              const StreamingConfig& streaming,
                              ExecutionContext* ctx) {
  StreamingValuationEngine engine(&model, &w.test,
                                  static_cast<int>(w.clients.size()),
                                  streaming, ctx);
  FedAvgTrainer trainer(&model, w.clients, w.test, fed_cfg, ctx);
  EXPECT_TRUE(trainer.Begin().ok());
  while (!trainer.Done()) {
    engine.OnRound(trainer.Step());
    Result<ValuationOutcome> snap = engine.Snapshot();
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  }
  Result<ValuationOutcome> out = engine.Finalize();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

TEST(DeterminismTest, WarmStreamedSampledPipelineIsThreadCountInvariant) {
  // Monte-Carlo FedSV and the streamed sampled ComFedSV recorder, which
  // re-solves with the warm start after every round, must stay
  // bit-identical across inline, 1-thread, and 4-thread execution:
  // parallelism is confined to the batched loss evaluator and the
  // completion sweeps.
  const int n = 5;
  Workload w = MakeWorkload(n, 1111);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 5;
  fed_cfg.clients_per_round = 3;
  fed_cfg.seed = 101;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  request.fedsv.permutations_per_round = 8;
  request.fedsv.seed = 102;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 6;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 40;
  request.comfedsv.seed = 103;

  StreamingConfig streaming;
  streaming.request = request;
  streaming.resolve_cadence = 1;
  streaming.warm_start = true;

  ValuationOutcome inline_run =
      RunStreaming(w, model, fed_cfg, streaming, nullptr);
  ExecutionContext single(1);
  ValuationOutcome single_run =
      RunStreaming(w, model, fed_cfg, streaming, &single);
  ExecutionContext threaded(4);
  ValuationOutcome threaded_run =
      RunStreaming(w, model, fed_cfg, streaming, &threaded);

  ASSERT_TRUE(inline_run.fedsv_values.has_value());
  ExpectBitIdentical(*inline_run.fedsv_values, *single_run.fedsv_values,
                     "Monte-Carlo FedSV inline vs threads=1");
  ExpectBitIdentical(*inline_run.fedsv_values, *threaded_run.fedsv_values,
                     "Monte-Carlo FedSV inline vs threads=4");
  ASSERT_TRUE(inline_run.comfedsv.has_value());
  ExpectBitIdentical(inline_run.comfedsv->values,
                     single_run.comfedsv->values,
                     "sampled ComFedSV inline vs threads=1");
  ExpectBitIdentical(inline_run.comfedsv->values,
                     threaded_run.comfedsv->values,
                     "sampled ComFedSV inline vs threads=4");

  // The full accounting — loss calls, batch passes, memo hits — is part
  // of the determinism contract too.
  ExpectStatsEqual(inline_run.fedsv_stats, threaded_run.fedsv_stats,
                   "FedSV");
  ExpectStatsEqual(inline_run.comfedsv->stats, threaded_run.comfedsv->stats,
                   "ComFedSV");
}

AdversaryConfig OneAdversary(int client, AdversaryKind kind,
                             double intensity, double camouflage = 0.0,
                             int accomplice = -1) {
  AdversarySpec spec;
  spec.client = client;
  spec.kind = kind;
  spec.intensity = intensity;
  spec.camouflage = camouflage;
  spec.accomplice = accomplice;
  AdversaryConfig cfg;
  cfg.specs.push_back(spec);
  cfg.seed = 4242;
  return cfg;
}

TEST(DeterminismTest, AdversarialScenariosAreThreadCountInvariant) {
  // Every adversarial behavior — including the degraded aggregation-guard
  // paths it triggers — must keep the full valuation pipeline
  // bit-identical across inline, 1-thread, and 4-thread execution: the
  // transforms and the guard run sequentially after the parallel local
  // updates, and all adversary randomness derives from
  // (seed, round, client).
  const int n = 5;
  Workload w = MakeWorkload(n, 3434);
  LogisticRegression model(w.test.dim(), 10);

  struct Scenario {
    const char* name;
    AdversaryConfig adversary;
    AggregationGuardConfig guard;
  };
  std::vector<Scenario> scenarios = {
      {"free-rider",
       OneAdversary(1, AdversaryKind::kFreeRider, 1.0, /*camouflage=*/0.05),
       {}},
      {"gradient-scaler",
       OneAdversary(2, AdversaryKind::kGradientScaler, 25.0),
       {true, /*clip_norm=*/0.5, 0}},
      {"colluder",
       OneAdversary(3, AdversaryKind::kColluder, 1.0, 0.0,
                    /*accomplice=*/0),
       {}},
      {"label-flipper",
       OneAdversary(0, AdversaryKind::kLabelFlipper, 0.4), {}},
      {"dropout", OneAdversary(4, AdversaryKind::kDropout, 0.5), {}},
      {"nan-corrupter",
       OneAdversary(2, AdversaryKind::kNanCorrupter, 1.0),
       {true, 0.0, /*quarantine_after=*/2}},
  };

  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    FedAvgConfig fed_cfg;
    fed_cfg.num_rounds = 4;
    fed_cfg.clients_per_round = 3;
    fed_cfg.seed = 3535;
    fed_cfg.adversary = scenario.adversary;
    fed_cfg.guard = scenario.guard;

    ValuationRequest request;
    request.compute_fedsv = true;
    request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
    request.fedsv.permutations_per_round = 6;
    request.fedsv.seed = 3636;
    request.compute_comfedsv = true;
    request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
    request.comfedsv.num_permutations = 5;
    request.comfedsv.completion.rank = 2;
    request.comfedsv.completion.lambda = 1e-3;
    request.comfedsv.completion.max_iters = 30;
    request.comfedsv.seed = 3737;

    ValuationOutcome inline_run =
        RunWith(w, model, fed_cfg, request, nullptr);
    ExecutionContext single(1);
    ValuationOutcome single_run =
        RunWith(w, model, fed_cfg, request, &single);
    ExecutionContext threaded(4);
    ValuationOutcome threaded_run =
        RunWith(w, model, fed_cfg, request, &threaded);

    ExpectOutcomesBitIdentical(inline_run, single_run,
                               "adversarial inline vs threads=1");
    ExpectOutcomesBitIdentical(inline_run, threaded_run,
                               "adversarial inline vs threads=4");
    ExpectBitIdentical(inline_run.training.final_params,
                       threaded_run.training.final_params,
                       "adversarial final params inline vs threads=4");
    EXPECT_EQ(inline_run.training.quarantine.rounds_degraded,
              threaded_run.training.quarantine.rounds_degraded);
    EXPECT_EQ(inline_run.training.quarantine.rejected,
              threaded_run.training.quarantine.rejected);
  }
}

TEST(DeterminismTest, AdversarialResumeFromCheckpointIsBitIdentical) {
  // The degraded path is checkpoint/resume-safe: a NaN-corrupting client
  // under an active quarantine policy accumulates per-client rejection
  // counters, and the round-t preemptive-drop decision depends on the
  // counters accumulated before t — so a kill/resume straddling the
  // quarantine trigger must still match the straight run bit for bit.
  const int n = 5;
  Workload w = MakeWorkload(n, 4646);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 5;
  fed_cfg.clients_per_round = 4;
  fed_cfg.seed = 4747;
  fed_cfg.adversary = OneAdversary(2, AdversaryKind::kNanCorrupter, 1.0);
  fed_cfg.guard.quarantine_after = 2;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  request.fedsv.permutations_per_round = 6;
  request.fedsv.seed = 4848;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 5;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 30;
  request.comfedsv.seed = 4949;

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecutionContext straight_ctx(threads);
    ValuationOutcome straight =
        RunWith(w, model, fed_cfg, request, &straight_ctx);
    // The scenario actually exercises quarantine: two rejections, then
    // preemptive drops for the remaining rounds.
    EXPECT_EQ(straight.training.quarantine.rejected[2], 2);
    EXPECT_GT(straight.training.quarantine.quarantine_drops[2], 0);

    // Crash after round 1 (pre-quarantine) and round 3 (post-trigger):
    // the resumed run must re-derive the same drop decisions.
    for (int crash_round : {1, 3}) {
      SCOPED_TRACE("crash after round " + std::to_string(crash_round));
      const std::string path = ::testing::TempDir() +
                               "comfedsv_adv_resume_t" +
                               std::to_string(threads) + "_r" +
                               std::to_string(crash_round) + ".ckpt";
      RemoveGenerations(path);

      CheckpointConfig ckpt;
      ckpt.path = path;
      ckpt.every_rounds = 1;
      ExecutionContext crash_ctx(threads);
      ASSERT_FALSE(CrashAfterRound(w, model, fed_cfg, request, ckpt,
                                   crash_round, &crash_ctx)
                       .ok());

      ExecutionContext resume_ctx(threads);
      Result<ValuationOutcome> resumed = RunValuationCheckpointed(
          model, w.clients, w.test, fed_cfg, request, ckpt, &resume_ctx);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

      ExpectOutcomesBitIdentical(resumed.value(), straight,
                                 "adversarial resumed vs straight");
      ExpectBitIdentical(resumed.value().training.final_params,
                         straight.training.final_params,
                         "adversarial resumed final params");
      EXPECT_EQ(resumed.value().training.quarantine.rejected,
                straight.training.quarantine.rejected);
      EXPECT_EQ(resumed.value().training.quarantine.quarantine_drops,
                straight.training.quarantine.quarantine_drops);
      EXPECT_EQ(resumed.value().training.quarantine.rounds_degraded,
                straight.training.quarantine.rounds_degraded);
      RemoveGenerations(path);
    }
  }
}

TEST(DeterminismTest, FullModeAndGroundTruthAreThreadCountInvariant) {
  // kFull exercises ObservedUtilityRecorder (parallel subset evaluation +
  // sequential interning) and the ground truth exercises
  // FullUtilityRecorder and the exact per-round Shapley.
  const int n = 4;
  Workload w = MakeWorkload(n, 987);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 3;
  fed_cfg.clients_per_round = 2;
  fed_cfg.select_all_first_round = true;
  fed_cfg.seed = 31;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.fedsv.seed = 32;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kFull;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 30;
  request.comfedsv.seed = 33;
  request.compute_ground_truth = true;

  ValuationOutcome inline_run = RunWith(w, model, fed_cfg, request, nullptr);
  ExecutionContext threaded(4);
  ValuationOutcome threaded_run =
      RunWith(w, model, fed_cfg, request, &threaded);

  ExpectBitIdentical(*inline_run.fedsv_values, *threaded_run.fedsv_values,
                     "exact FedSV inline vs threads=4");
  ExpectBitIdentical(inline_run.comfedsv->values,
                     threaded_run.comfedsv->values,
                     "full ComFedSV inline vs threads=4");
  ExpectBitIdentical(*inline_run.ground_truth_values,
                     *threaded_run.ground_truth_values,
                     "ground truth inline vs threads=4");
}

// --- The streaming engine's shared round memo ---

// Each evaluator driven on its own over the trainer's rounds, each round
// through its private memo — what the engine's evaluators must equal,
// values and stats alike, although the engine hands them one shared memo.
ValuationOutcome RunStandAlone(const Workload& w, const Model& model,
                               const FedAvgConfig& fed_cfg,
                               const ValuationRequest& request,
                               ExecutionContext* ctx) {
  const int n = static_cast<int>(w.clients.size());
  FedAvgTrainer trainer(&model, w.clients, w.test, fed_cfg, ctx);
  std::optional<FedSvEvaluator> fedsv;
  std::optional<ComFedSvEvaluator> comfedsv;
  std::optional<GroundTruthEvaluator> ground_truth;
  if (request.compute_fedsv) {
    fedsv.emplace(&model, &trainer.test_data(), n, request.fedsv, ctx);
  }
  if (request.compute_comfedsv) {
    comfedsv.emplace(&model, &trainer.test_data(), n, request.comfedsv, ctx);
  }
  if (request.compute_ground_truth) {
    ground_truth.emplace(&model, &trainer.test_data(), n, ctx);
  }
  EXPECT_TRUE(trainer.Begin().ok());
  while (!trainer.Done()) {
    const RoundRecord& record = trainer.Step();
    if (fedsv.has_value()) fedsv->OnRound(record);
    if (comfedsv.has_value()) comfedsv->OnRound(record);
    if (ground_truth.has_value()) ground_truth->OnRound(record);
  }
  ValuationOutcome out;
  if (fedsv.has_value()) {
    out.fedsv_values = fedsv->values();
    out.fedsv_stats = fedsv->stats();
  }
  if (comfedsv.has_value()) {
    Result<ComFedSvOutput> finalized = comfedsv->Finalize();
    EXPECT_TRUE(finalized.ok()) << finalized.status().ToString();
    out.comfedsv = std::move(finalized).value();
  }
  if (ground_truth.has_value()) {
    Result<Vector> values = ground_truth->Finalize();
    EXPECT_TRUE(values.ok()) << values.status().ToString();
    out.ground_truth_values = std::move(values).value();
    out.ground_truth_stats = ground_truth->stats();
  }
  return out;
}

// The stand-alone evaluators' loss calls summed: what the run would cost
// with one memo per evaluator.
int64_t StandAloneLossCalls(const ValuationOutcome& out) {
  return out.fedsv_stats.loss_calls +
         (out.comfedsv.has_value() ? out.comfedsv->stats.loss_calls : 0) +
         out.ground_truth_stats.loss_calls;
}

struct SharingCase {
  const char* name;
  ValuationRequest request;
};

std::vector<SharingCase> SharingCases() {
  ValuationRequest exact;  // every evaluator reads every subset of I_t
  exact.compute_fedsv = true;
  exact.fedsv.mode = FedSvConfig::Mode::kExact;
  exact.fedsv.seed = 52;
  exact.compute_comfedsv = true;
  exact.comfedsv.mode = ComFedSvConfig::Mode::kFull;
  exact.comfedsv.completion.rank = 2;
  exact.comfedsv.completion.lambda = 1e-3;
  exact.comfedsv.completion.max_iters = 30;
  exact.comfedsv.seed = 53;
  exact.compute_ground_truth = true;

  ValuationRequest sampled;  // the evaluators' prefixes partly overlap
  sampled.compute_fedsv = true;
  sampled.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  sampled.fedsv.permutations_per_round = 8;
  sampled.fedsv.seed = 54;
  sampled.compute_comfedsv = true;
  sampled.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  sampled.comfedsv.num_permutations = 6;
  sampled.comfedsv.completion.rank = 2;
  sampled.comfedsv.completion.lambda = 1e-3;
  sampled.comfedsv.completion.max_iters = 30;
  sampled.comfedsv.seed = 55;
  return {{"exact FedSV + full ComFedSV + ground truth", exact},
          {"Monte-Carlo FedSV + sampled ComFedSV", sampled}};
}

FedAvgConfig SharingFedConfig() {
  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 4;
  fed_cfg.clients_per_round = 3;
  fed_cfg.select_all_first_round = true;
  fed_cfg.seed = 51;
  return fed_cfg;
}

TEST(DeterminismTest, SharedRoundMemoMatchesStandAloneEvaluators) {
  // The engine's evaluators share one memo per round; every value and
  // every evaluator's UtilityStats must equal the stand-alone
  // evaluators', at every thread count, while the run measures fewer
  // loss calls than the stand-alone evaluators would pay in sum.
  const int n = 5;
  Workload w = MakeWorkload(n, 5150);
  LogisticRegression model(w.test.dim(), 10);
  const FedAvgConfig fed_cfg = SharingFedConfig();
  for (const SharingCase& c : SharingCases()) {
    SCOPED_TRACE(c.name);
    const ValuationOutcome stand_alone =
        RunStandAlone(w, model, fed_cfg, c.request, nullptr);
    std::optional<int64_t> measured;
    for (int threads : {0, 1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::optional<ExecutionContext> ctx;
      if (threads > 0) ctx.emplace(threads);
      ExecutionContext* run_ctx = ctx.has_value() ? &*ctx : nullptr;
      const ValuationOutcome engine =
          RunWith(w, model, fed_cfg, c.request, run_ctx);
      ExpectOutcomesBitIdentical(engine, stand_alone,
                                 "engine vs stand-alone");
      ExpectOutcomesBitIdentical(
          RunStandAlone(w, model, fed_cfg, c.request, run_ctx), stand_alone,
          "stand-alone vs stand-alone inline");
      EXPECT_GT(engine.measured_loss_calls, 0);
      EXPECT_LT(engine.measured_loss_calls, StandAloneLossCalls(engine));
      if (!measured.has_value()) measured = engine.measured_loss_calls;
      EXPECT_EQ(engine.measured_loss_calls, *measured);
    }
  }
}

TEST(DeterminismTest, SharedRoundMemoResumeIsBitIdentical) {
  // Kill/resume through the shared memo: the checkpointed evaluator
  // stats are stand-alone counts, so the resumed run equals the
  // uninterrupted one, stats included. The measured count is not
  // checkpointed and covers only the rounds the resuming process ran.
  const int n = 5;
  Workload w = MakeWorkload(n, 5151);
  LogisticRegression model(w.test.dim(), 10);
  const FedAvgConfig fed_cfg = SharingFedConfig();
  for (const SharingCase& c : SharingCases()) {
    SCOPED_TRACE(c.name);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExecutionContext straight_ctx(threads);
      const ValuationOutcome straight =
          RunWith(w, model, fed_cfg, c.request, &straight_ctx);

      const std::string path = ::testing::TempDir() +
                               "comfedsv_shared_memo_t" +
                               std::to_string(threads) + ".ckpt";
      RemoveGenerations(path);
      CheckpointConfig ckpt;
      ckpt.path = path;
      ckpt.every_rounds = 1;
      ExecutionContext crash_ctx(threads);
      ASSERT_FALSE(CrashAfterRound(w, model, fed_cfg, c.request, ckpt,
                                   /*round=*/2, &crash_ctx)
                       .ok());
      ExecutionContext resume_ctx(threads);
      Result<ValuationOutcome> resumed = RunValuationCheckpointed(
          model, w.clients, w.test, fed_cfg, c.request, ckpt, &resume_ctx);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ExpectOutcomesBitIdentical(resumed.value(), straight,
                                 "resumed vs straight");
      EXPECT_GT(resumed.value().measured_loss_calls, 0);
      EXPECT_LT(resumed.value().measured_loss_calls,
                straight.measured_loss_calls);
      RemoveGenerations(path);
    }
  }
}

TEST(DeterminismTest, MeasuredLossCallsCountDistinctCoalitions) {
  // With the ground truth on, every round's memo holds all 2^N - 1
  // non-empty coalitions, and every other evaluator's coalitions are
  // among them: the run measures exactly those, once each, at every
  // thread count — while each evaluator still reports its stand-alone
  // count.
  const int n = 4;
  Workload w = MakeWorkload(n, 5152);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig fed_cfg = SharingFedConfig();
  fed_cfg.clients_per_round = 2;
  const ValuationRequest request = SharingCases()[0].request;
  const int64_t distinct =
      static_cast<int64_t>(fed_cfg.num_rounds) * ((1 << n) - 1);
  for (int threads : {0, 1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::optional<ExecutionContext> ctx;
    if (threads > 0) ctx.emplace(threads);
    const ValuationOutcome out = RunWith(
        w, model, fed_cfg, request, ctx.has_value() ? &*ctx : nullptr);
    EXPECT_EQ(out.measured_loss_calls, distinct);
    EXPECT_EQ(out.ground_truth_stats.loss_calls, distinct);
    // Round 0 selects all 4 clients, rounds 1-3 two each.
    EXPECT_EQ(out.fedsv_stats.loss_calls, 15 + 3 * 3);
    EXPECT_EQ(out.comfedsv->stats.loss_calls, 15 + 3 * 3);
  }
}

}  // namespace
}  // namespace comfedsv
