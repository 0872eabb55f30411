// Crash-consistency suite for the checkpoint pipeline: the failpoint
// registry, the fault-injecting FileEnv, the CheckpointManager's
// rotation / retry / salvage behaviors, and — the centerpiece — a
// crash-sweep harness that kills a checkpointed streaming run at every
// instrumented I/O operation, "reboots", recovers, and proves the final
// valuation bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "data/image_sim.h"
#include "data/partition.h"
#include "io/checkpoint_manager.h"
#include "io/file_env.h"
#include "io/serialize.h"
#include "models/logistic.h"

namespace comfedsv {
namespace {

namespace fs = std::filesystem;

class IoRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().ClearAll();
    root_ = fs::path(::testing::TempDir()) /
            ("io_recovery_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override {
    FailpointRegistry::Global().ClearAll();
    fs::remove_all(root_);
  }

  /// A fresh empty subdirectory of this test's scratch space.
  std::string Dir(const std::string& name) {
    const fs::path dir = root_ / name;
    fs::create_directories(dir);
    return dir.string();
  }

  fs::path root_;
};

CheckpointManagerOptions FastOptions(FileEnv* env, int keep = 2,
                                     int max_retries = 1,
                                     std::vector<int>* delays = nullptr) {
  CheckpointManagerOptions options;
  options.keep_generations = keep;
  options.max_retries = max_retries;
  options.retry_backoff_ms = 5;
  options.sleeper = [delays](int ms) {
    if (delays != nullptr) delays->push_back(ms);
  };
  options.env = env;
  return options;
}

void Arm(const char* name, FailpointTrigger trigger, FaultAction action,
         int64_t arg = 0) {
  FailpointRegistry::Global().Arm(name, trigger, static_cast<int>(action),
                                  arg);
}

// ---------------------------------------------------------------------
// Failpoint policy determinism.
// ---------------------------------------------------------------------

TEST_F(IoRecoveryTest, FailpointPoliciesAreDeterministic) {
  auto& registry = FailpointRegistry::Global();

  registry.Arm("t/onhit", FailpointTrigger::OnHit(3), 1, 42);
  for (int hit = 1; hit <= 6; ++hit) {
    auto fire = registry.Hit("t/onhit");
    if (hit == 3) {
      ASSERT_TRUE(fire.has_value());
      EXPECT_EQ(fire->action, 1);
      EXPECT_EQ(fire->arg, 42);
    } else {
      EXPECT_FALSE(fire.has_value()) << "hit " << hit;  // one-shot disarms
    }
  }

  registry.Arm("t/every", FailpointTrigger::EveryN(2), 1);
  for (int hit = 1; hit <= 6; ++hit) {
    EXPECT_EQ(registry.Hit("t/every").has_value(), hit % 2 == 0)
        << "hit " << hit;
  }

  // A seeded coin flip is replayable: re-arming with the same spec
  // reproduces the firing pattern bit for bit.
  std::vector<bool> first_pass;
  registry.Arm("t/coin", FailpointTrigger::WithProbability(0.5, 1234), 1);
  for (int hit = 0; hit < 64; ++hit) {
    first_pass.push_back(registry.Hit("t/coin").has_value());
  }
  registry.Arm("t/coin", FailpointTrigger::WithProbability(0.5, 1234), 1);
  for (int hit = 0; hit < 64; ++hit) {
    EXPECT_EQ(registry.Hit("t/coin").has_value(), first_pass[hit])
        << "hit " << hit;
  }
  const int fires = static_cast<int>(
      std::count(first_pass.begin(), first_pass.end(), true));
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
}

// ---------------------------------------------------------------------
// Checkpoint-load edge cases: each failure shape maps to the one status
// code the salvage logic keys off.
// ---------------------------------------------------------------------

TEST_F(IoRecoveryTest, LoadEdgeCasesMapToDistinctCodes) {
  const std::string dir = Dir("edges");

  // ENOENT: nothing was ever written.
  EXPECT_EQ(ReadCheckpointFile(dir + "/missing.ckpt", ChunkTag::kVector)
                .status()
                .code(),
            StatusCode::kNotFound);

  // Zero-length file: a crash right after open — corrupt, not missing.
  const std::string empty = dir + "/empty.ckpt";
  ASSERT_TRUE(FileEnv::Real()->WriteFile(empty, "").ok());
  EXPECT_EQ(ReadCheckpointFile(empty, ChunkTag::kVector).status().code(),
            StatusCode::kDataLoss);

  // The path names a directory: caller error, never salvageable.
  EXPECT_EQ(ReadCheckpointFile(dir, ChunkTag::kVector).status().code(),
            StatusCode::kInvalidArgument);

  // A directory holding only `.tmp` debris: the sweep clears it and the
  // load correctly reports "no checkpoint" rather than corruption.
  const std::string stem = dir + "/stream.ckpt";
  ASSERT_TRUE(FileEnv::Real()->WriteFile(stem + ".tmp", "debris").ok());
  CheckpointManager manager(stem, FastOptions(FileEnv::Real()));
  Result<int> swept = manager.SweepOrphans();
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept.value(), 1);
  EXPECT_FALSE(FileEnv::Real()->Exists(stem + ".tmp"));
  EXPECT_EQ(manager.Load(ChunkTag::kVector).status().code(),
            StatusCode::kNotFound);
}

TEST_F(IoRecoveryTest, SweepRemovesOnlyThisFamilysTempFiles) {
  const std::string dir = Dir("sweep");
  const std::string stem = dir + "/run.ckpt";
  FileEnv* real = FileEnv::Real();
  ASSERT_TRUE(real->WriteFile(stem + ".tmp", "a").ok());
  ASSERT_TRUE(real->WriteFile(stem + ".00000007.tmp", "b").ok());
  ASSERT_TRUE(real->WriteFile(dir + "/other.ckpt.tmp", "c").ok());
  ASSERT_TRUE(real->WriteFile(stem + ".notaseq.tmp", "d").ok());

  CheckpointManager manager(stem, FastOptions(real));
  Result<int> swept = manager.SweepOrphans();
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept.value(), 2);
  EXPECT_TRUE(real->Exists(dir + "/other.ckpt.tmp"));
  EXPECT_TRUE(real->Exists(stem + ".notaseq.tmp"));
}

// ---------------------------------------------------------------------
// Rotation, retry, salvage.
// ---------------------------------------------------------------------

TEST_F(IoRecoveryTest, RotationKeepsNewestGenerations) {
  const std::string stem = Dir("rotate") + "/v.ckpt";
  CheckpointManager manager(stem, FastOptions(FileEnv::Real(), 3));
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        manager.Write(ChunkTag::kVector, "gen" + std::to_string(i)).ok());
  }
  auto generations = manager.ListGenerations();
  ASSERT_EQ(generations.size(), 3u);
  EXPECT_EQ(generations.front().first, 3u);
  EXPECT_EQ(generations.back().first, 5u);
  EXPECT_FALSE(FileEnv::Real()->Exists(stem));  // rotated, no bare file

  Result<CheckpointManager::LoadInfo> loaded =
      manager.Load(ChunkTag::kVector);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().payload, "gen5");
  EXPECT_EQ(loaded.value().sequence, 5u);
  EXPECT_EQ(loaded.value().quarantined, 0);

  // A fresh manager over the same directory continues the sequence
  // instead of restarting at 1.
  CheckpointManager reopened(stem, FastOptions(FileEnv::Real(), 3));
  ASSERT_TRUE(reopened.Write(ChunkTag::kVector, "gen6").ok());
  EXPECT_EQ(reopened.ListGenerations().back().first, 6u);
}

TEST_F(IoRecoveryTest, LegacyFileMigratesIntoRotation) {
  const std::string stem = Dir("migrate") + "/v.ckpt";
  {
    CheckpointManager legacy(stem, FastOptions(FileEnv::Real(), 1));
    ASSERT_TRUE(legacy.Write(ChunkTag::kVector, "old").ok());
    ASSERT_TRUE(FileEnv::Real()->Exists(stem));
  }
  CheckpointManager rotated(stem, FastOptions(FileEnv::Real(), 2));
  Result<CheckpointManager::LoadInfo> loaded =
      rotated.Load(ChunkTag::kVector);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().payload, "old");

  // The next write lands in a rotated generation that outranks the bare
  // legacy file.
  ASSERT_TRUE(rotated.Write(ChunkTag::kVector, "new").ok());
  Result<CheckpointManager::LoadInfo> newest =
      rotated.Load(ChunkTag::kVector);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest.value().payload, "new");
  EXPECT_NE(newest.value().file, stem);
}

TEST_F(IoRecoveryTest, LoweredKeepGenerationsStillResumesRotatedState) {
  const std::string stem = Dir("lowered") + "/v.ckpt";
  {
    CheckpointManager manager(stem, FastOptions(FileEnv::Real(), 3));
    ASSERT_TRUE(manager.Write(ChunkTag::kVector, "gen1").ok());
    ASSERT_TRUE(manager.Write(ChunkTag::kVector, "gen2").ok());
    ASSERT_TRUE(manager.Write(ChunkTag::kVector, "gen3").ok());
  }

  // A later run lowers keep_generations to 1 (the legacy single-file
  // layout). The rotated generations on disk must still be resumable —
  // never a silent fresh start.
  CheckpointManager legacy(stem, FastOptions(FileEnv::Real(), 1));
  Result<CheckpointManager::LoadInfo> loaded = legacy.Load(ChunkTag::kVector);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().payload, "gen3");
  EXPECT_EQ(loaded.value().sequence, 3u);

  // The next write continues the sequence into the bare file and
  // rotates the stale generations away — except the one the load just
  // restored from, which pruning must never delete.
  ASSERT_TRUE(legacy.Write(ChunkTag::kVector, "gen4").ok());
  ASSERT_TRUE(FileEnv::Real()->Exists(stem));
  EXPECT_TRUE(FileEnv::Real()->Exists(loaded.value().file));

  // Raising the knob back up resumes from the newest state — the bare
  // file at sequence 4 — not a stale leftover generation.
  CheckpointManager raised(stem, FastOptions(FileEnv::Real(), 3));
  Result<CheckpointManager::LoadInfo> newest = raised.Load(ChunkTag::kVector);
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  EXPECT_EQ(newest.value().payload, "gen4");
  EXPECT_EQ(newest.value().sequence, 4u);
  EXPECT_EQ(newest.value().file, stem);
}

TEST_F(IoRecoveryTest, PruneNeverDeletesTheSalvagedGeneration) {
  const std::string stem = Dir("salvage_keep") + "/v.ckpt";
  {
    CheckpointManager manager(stem, FastOptions(FileEnv::Real(), 4));
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(
          manager.Write(ChunkTag::kVector, "gen" + std::to_string(i)).ok());
    }
  }

  // Corrupt the newest two generations, then resume with a lowered
  // retention window: salvage falls back to gen2.
  CheckpointManager lowered(stem, FastOptions(FileEnv::Real(), 2));
  auto generations = lowered.ListGenerations();
  ASSERT_EQ(generations.size(), 4u);
  const std::string oldest = generations.front().second;
  for (size_t i = 2; i < 4; ++i) {
    Result<std::string> bytes = FileEnv::Real()->ReadFile(
        generations[i].second);
    ASSERT_TRUE(bytes.ok());
    std::string corrupted = bytes.value();
    corrupted.back() ^= 0x40;
    ASSERT_TRUE(
        FileEnv::Real()->WriteFile(generations[i].second, corrupted).ok());
  }
  Result<CheckpointManager::LoadInfo> loaded = lowered.Load(ChunkTag::kVector);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().payload, "gen2");
  EXPECT_EQ(loaded.value().quarantined, 2);

  // Two fresh writes would normally rotate gen2 out of a keep-2 window;
  // the generation salvage fell back to must survive both, while the
  // older non-salvage generation is pruned normally.
  ASSERT_TRUE(lowered.Write(ChunkTag::kVector, "gen5").ok());
  ASSERT_TRUE(lowered.Write(ChunkTag::kVector, "gen6").ok());
  EXPECT_TRUE(FileEnv::Real()->Exists(loaded.value().file));
  EXPECT_FALSE(FileEnv::Real()->Exists(oldest));
  Result<CheckpointManager::LoadInfo> newest = lowered.Load(ChunkTag::kVector);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest.value().payload, "gen6");
}

// Flips byte `offset` (negative: counted from the end) of the newest of
// three generations and expects Load to quarantine it and salvage gen2.
void ExpectSalvageAfterFlip(const std::string& stem, int offset) {
  SCOPED_TRACE("corrupted offset " + std::to_string(offset));
  CheckpointManager manager(stem, FastOptions(FileEnv::Real(), 3));
  ASSERT_TRUE(manager.Write(ChunkTag::kVector, "gen1").ok());
  ASSERT_TRUE(manager.Write(ChunkTag::kVector, "gen2").ok());
  ASSERT_TRUE(manager.Write(ChunkTag::kVector, "gen3").ok());

  const std::string newest = manager.ListGenerations().back().second;
  Result<std::string> bytes = FileEnv::Real()->ReadFile(newest);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  const size_t pos =
      offset < 0 ? corrupted.size() + offset : static_cast<size_t>(offset);
  ASSERT_LT(pos, corrupted.size());
  corrupted[pos] ^= 0x40;
  ASSERT_TRUE(FileEnv::Real()->WriteFile(newest, corrupted).ok());

  Result<CheckpointManager::LoadInfo> loaded =
      manager.Load(ChunkTag::kVector);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().payload, "gen2");
  EXPECT_EQ(loaded.value().quarantined, 1);
  EXPECT_EQ(manager.quarantined_total(), 1);
  EXPECT_TRUE(FileEnv::Real()->Exists(newest + ".corrupt"));
  EXPECT_FALSE(FileEnv::Real()->Exists(newest));

  // Every generation corrupt -> DataLoss, never a silent fresh start.
  for (const auto& [seq, file] : manager.ListGenerations()) {
    Result<std::string> good = FileEnv::Real()->ReadFile(file);
    ASSERT_TRUE(good.ok());
    std::string bad = good.value();
    bad.back() ^= 0x40;
    ASSERT_TRUE(FileEnv::Real()->WriteFile(file, bad).ok());
  }
  EXPECT_EQ(manager.Load(ChunkTag::kVector).status().code(),
            StatusCode::kDataLoss);
}

// Every DataLoss-class header field and both payload ends salvage. The
// version (4) and root tag (8) bytes are left out: they propagate as
// FailedPrecondition / InvalidArgument by design.
TEST_F(IoRecoveryTest, SalvageQuarantinesCorruptNewestGeneration) {
  const struct {
    const char* field;
    int offset;
  } flips[] = {
      {"magic", 0},     {"length", 12},        {"sequence", 20},
      {"checksum", 28}, {"payload_first", 36}, {"payload_last", -1},
  };
  for (const auto& flip : flips) {
    ExpectSalvageAfterFlip(Dir(flip.field) + "/v.ckpt", flip.offset);
  }
}

TEST_F(IoRecoveryTest, TornRenameIsAbsorbedBySalvage) {
  const std::string stem = Dir("torn") + "/v.ckpt";
  FaultInjectingFileEnv fault;
  CheckpointManager manager(stem, FastOptions(&fault, 2));
  ASSERT_TRUE(manager.Write(ChunkTag::kVector, "good").ok());

  // The rename entry goes durable but the data blocks don't: the write
  // reports success, yet the newest generation is a truncated husk.
  Arm(failpoints::kRename, FailpointTrigger::OnHit(1), FaultAction::kTornRename,
      /*arg=*/10);
  ASSERT_TRUE(manager.Write(ChunkTag::kVector, "torn-away").ok());
  FailpointRegistry::Global().ClearAll();

  Result<CheckpointManager::LoadInfo> loaded =
      manager.Load(ChunkTag::kVector);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().payload, "good");
  EXPECT_EQ(loaded.value().quarantined, 1);
}

TEST_F(IoRecoveryTest, TransientWriteErrorsRetryWithDeterministicBackoff) {
  const std::string stem = Dir("retry") + "/v.ckpt";
  FaultInjectingFileEnv fault;
  std::vector<int> delays;
  CheckpointManager manager(
      stem, FastOptions(&fault, 2, /*max_retries=*/2, &delays));

  // One transient EIO: the retry succeeds after one backoff step.
  Arm(failpoints::kWriteFile, FailpointTrigger::OnHit(1), FaultAction::kError);
  ASSERT_TRUE(manager.Write(ChunkTag::kVector, "v1").ok());
  EXPECT_EQ(manager.write_retries(), 1);
  EXPECT_EQ(delays, std::vector<int>({5}));

  // A persistent failure exhausts the budget on the documented
  // exponential schedule and surfaces as Unavailable.
  delays.clear();
  Arm(failpoints::kWriteFile, FailpointTrigger::EveryN(1), FaultAction::kError);
  Status st = manager.Write(ChunkTag::kVector, "v2");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager.write_retries(), 3);
  EXPECT_EQ(delays, std::vector<int>({5, 10}));
  FailpointRegistry::Global().ClearAll();

  // The failed write left no new resumable generation.
  Result<CheckpointManager::LoadInfo> loaded =
      manager.Load(ChunkTag::kVector);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().payload, "v1");
}

TEST_F(IoRecoveryTest, EnospcShortWriteIsRetriedThenSalvageable) {
  const std::string stem = Dir("enospc") + "/v.ckpt";
  FaultInjectingFileEnv fault;
  CheckpointManager manager(stem, FastOptions(&fault, 2, /*max_retries=*/1));
  ASSERT_TRUE(manager.Write(ChunkTag::kVector, "first").ok());

  // Disk full on every attempt: the write fails after retrying, leaving
  // only a torn `.tmp` that the next startup sweep clears.
  Arm(failpoints::kWriteFile, FailpointTrigger::EveryN(1), FaultAction::kEnospc,
      /*arg=*/4);
  EXPECT_EQ(manager.Write(ChunkTag::kVector, "second").code(),
            StatusCode::kUnavailable);
  FailpointRegistry::Global().ClearAll();

  CheckpointManager recovered(stem, FastOptions(&fault, 2));
  Result<int> swept = recovered.SweepOrphans();
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept.value(), 0);  // WriteCheckpointFile removed its own tmp
  Result<CheckpointManager::LoadInfo> loaded =
      recovered.Load(ChunkTag::kVector);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().payload, "first");
}

// ---------------------------------------------------------------------
// Streaming-engine degradation and the crash-sweep harness.
// ---------------------------------------------------------------------

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

void ExpectBitIdentical(const Vector& a, const Vector& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " diverges at client " << i;
  }
}

/// The small deterministic scenario every recovery test streams.
struct StreamScenario {
  static constexpr int kClients = 3;

  StreamScenario()
      : w(MakeWorkload(kClients, 4242)), model(w.test.dim(), 10) {
    fed_cfg.num_rounds = 3;
    fed_cfg.clients_per_round = 2;
    fed_cfg.seed = 17;
    streaming.request.compute_fedsv = true;
    streaming.request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
    streaming.request.fedsv.permutations_per_round = 4;
    streaming.request.fedsv.seed = 18;
    streaming.request.compute_comfedsv = true;
    streaming.request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
    streaming.request.comfedsv.num_permutations = 4;
    streaming.request.comfedsv.completion.rank = 2;
    streaming.request.comfedsv.completion.lambda = 1e-3;
    streaming.request.comfedsv.completion.max_iters = 20;
    streaming.request.comfedsv.seed = 19;
    streaming.resolve_cadence = 1;
  }

  std::unique_ptr<StreamingValuationEngine> NewEngine() const {
    return std::make_unique<StreamingValuationEngine>(&model, &w.test,
                                                      kClients, streaming);
  }

  /// Replays the training trajectory from scratch, feeding the engine
  /// every round >= `first_round` and checkpointing after each. Save
  /// failures degrade rather than abort; a sticky environment crash
  /// ends the run early (the "process" died).
  void Run(StreamingValuationEngine* engine, CheckpointManager* manager,
           FaultInjectingFileEnv* fault, int first_round) const {
    FedAvgTrainer trainer(&model, w.clients, w.test, fed_cfg);
    ASSERT_TRUE(trainer.Begin().ok());
    while (!trainer.Done()) {
      const RoundRecord& record = trainer.Step();
      if (record.round < first_round) continue;
      engine->OnRound(record);
      (void)engine->SaveCheckpoint(manager);
      if (fault != nullptr && fault->crashed()) return;
    }
  }

  Workload w;
  LogisticRegression model;
  FedAvgConfig fed_cfg;
  StreamingConfig streaming;
};

TEST_F(IoRecoveryTest, StreamingHealthDegradesAndRecovers) {
  StreamScenario s;
  const std::string stem = Dir("health") + "/stream.ckpt";
  FaultInjectingFileEnv fault;
  CheckpointManager manager(stem, FastOptions(&fault, 2, /*max_retries=*/0));

  auto engine = s.NewEngine();
  FedAvgTrainer trainer(&s.model, s.w.clients, s.w.test, s.fed_cfg);
  ASSERT_TRUE(trainer.Begin().ok());
  Arm(failpoints::kWriteFile, FailpointTrigger::EveryN(1), FaultAction::kError);

  engine->OnRound(trainer.Step());
  EXPECT_EQ(engine->SaveCheckpoint(&manager).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(engine->health().degraded);
  EXPECT_EQ(engine->health().checkpoint_failures, 1);
  EXPECT_EQ(engine->health().consecutive_failures, 1);
  EXPECT_EQ(engine->health().rounds_since_durable, 1);
  EXPECT_FALSE(engine->health().last_error.empty());

  // The engine keeps streaming on its in-memory state; once the
  // environment heals, the next save recovers full durability.
  engine->OnRound(trainer.Step());
  EXPECT_FALSE(engine->SaveCheckpoint(&manager).ok());
  EXPECT_EQ(engine->health().consecutive_failures, 2);

  FailpointRegistry::Global().ClearAll();
  ASSERT_TRUE(engine->SaveCheckpoint(&manager).ok());
  EXPECT_FALSE(engine->health().degraded);
  EXPECT_EQ(engine->health().consecutive_failures, 0);
  EXPECT_EQ(engine->health().rounds_since_durable, 0);
  EXPECT_EQ(engine->health().checkpoint_failures, 2);  // history remains

  // And the saved state round-trips into a fresh engine.
  auto resumed = s.NewEngine();
  ASSERT_TRUE(resumed->RestoreCheckpoint(&manager).ok());
  EXPECT_EQ(resumed->rounds_consumed(), 2);
  EXPECT_EQ(resumed->health().rounds_since_durable, 0);
}

TEST_F(IoRecoveryTest, TrainerCheckpointRefusesSurrogateScreening) {
  // A trainer checkpoint carries no completion factors, so an engine
  // that screens with them could not resume bit-identically from one.
  StreamScenario s;
  s.streaming.surrogate_screening = true;
  CheckpointManager manager(Dir("screening") + "/run.ckpt",
                            FastOptions(FileEnv::Real()));
  auto engine = s.NewEngine();
  FedAvgTrainer trainer(&s.model, s.w.clients, s.w.test, s.fed_cfg);
  ASSERT_TRUE(trainer.Begin().ok());
  engine->OnRound(trainer.Step());
  EXPECT_EQ(engine->SaveCheckpoint(&manager, &trainer).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(manager.ListGenerations().empty());
  // The engine's own format keeps the factors.
  EXPECT_TRUE(engine->SaveCheckpoint(&manager).ok());
}

TEST_F(IoRecoveryTest, CrashSweepRecoversBitIdenticalAtEveryFailpoint) {
  StreamScenario s;

  // Uninterrupted baseline (no checkpoint I/O at all).
  Vector baseline_fedsv;
  Vector baseline_comfedsv;
  std::vector<double> baseline_history;
  {
    auto engine = s.NewEngine();
    FedAvgTrainer trainer(&s.model, s.w.clients, s.w.test, s.fed_cfg);
    ASSERT_TRUE(trainer.Begin().ok());
    while (!trainer.Done()) engine->OnRound(trainer.Step());
    Result<ValuationOutcome> out = engine->Finalize();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE(out.value().fedsv_values.has_value());
    ASSERT_TRUE(out.value().comfedsv.has_value());
    baseline_fedsv = *out.value().fedsv_values;
    baseline_comfedsv = out.value().comfedsv->values;
    baseline_history = out.value().training.test_loss_history;
  }

  // Pilot run with tracing: one checkpointed run plus one recovery,
  // faithfully counting every I/O hit. This enumerates the fault
  // surface the sweep then schedules against.
  FailpointRegistry::Global().set_tracing(true);
  {
    const std::string stem = Dir("pilot") + "/stream.ckpt";
    FaultInjectingFileEnv fault;
    {
      CheckpointManager manager(stem, FastOptions(&fault, 2));
      ASSERT_TRUE(manager.SweepOrphans().ok());
      auto engine = s.NewEngine();
      s.Run(engine.get(), &manager, &fault, 0);
    }
    CheckpointManager manager(stem, FastOptions(&fault, 2));
    ASSERT_TRUE(manager.SweepOrphans().ok());
    auto engine = s.NewEngine();
    ASSERT_TRUE(engine->RestoreCheckpoint(&manager).ok());
    EXPECT_EQ(engine->rounds_consumed(), s.fed_cfg.num_rounds);
  }
  std::map<std::string, int64_t> surface;
  for (const auto& [name, hits] : FailpointRegistry::Global().HitCounts()) {
    surface[name] = hits;
  }
  FailpointRegistry::Global().ClearAll();
  ASSERT_GT(surface[failpoints::kWriteFile], 0);
  ASSERT_GT(surface[failpoints::kSyncFile], 0);
  ASSERT_GT(surface[failpoints::kRename], 0);
  ASSERT_GT(surface[failpoints::kSyncDir], 0);
  ASSERT_GT(surface[failpoints::kReadFile], 0);
  ASSERT_GT(surface[failpoints::kListDir], 0);

  // The sweep: for every instrumented operation and every opportunity
  // it had, kill the process exactly there, reboot, recover, replay,
  // and demand the final valuation bit-identical to the baseline.
  int sweeps = 0;
  for (const std::string& name : failpoints::All()) {
    for (int64_t k = 1; k <= surface[name]; ++k) {
      SCOPED_TRACE(name + " @ hit " + std::to_string(k));
      ++sweeps;
      std::string label = name + "_" + std::to_string(k);
      for (char& c : label) {
        if (c == '/') c = '_';
      }
      const std::string stem = Dir(label) + "/stream.ckpt";
      FaultInjectingFileEnv fault;
      Arm(name.c_str(), FailpointTrigger::OnHit(k), FaultAction::kCrash,
          /*arg=*/7);  // a write dies mid-flight, leaving 7 torn bytes

      // Phase 1: run until the crash (or to completion when hit k
      // belongs to the recovery segment of the schedule).
      {
        CheckpointManager manager(stem, FastOptions(&fault, 2));
        (void)manager.SweepOrphans();
        auto doomed = s.NewEngine();
        s.Run(doomed.get(), &manager, &fault, 0);
      }

      // Reboot: the crashed state clears, the disk keeps whatever the
      // crash left. The one-shot trigger stays armed in case hit k
      // lands inside recovery.
      fault.ClearCrash();

      // Phase 2: recover. A crash mid-recovery gets one more reboot
      // and a clean second attempt — recovery itself must be
      // restartable.
      int resume_round = -1;
      std::unique_ptr<StreamingValuationEngine> engine;
      for (int attempt = 0; attempt < 2 && resume_round < 0; ++attempt) {
        engine = s.NewEngine();
        CheckpointManager manager(stem, FastOptions(&fault, 2));
        (void)manager.SweepOrphans();
        Status restored = engine->RestoreCheckpoint(&manager);
        if (restored.ok()) {
          resume_round = engine->rounds_consumed();
        } else if (restored.code() == StatusCode::kNotFound &&
                   !fault.crashed()) {
          resume_round = 0;  // clean reported fallback: fresh start
        } else {
          fault.ClearCrash();
          FailpointRegistry::Global().ClearAll();
        }
      }
      ASSERT_GE(resume_round, 0) << "recovery never settled";
      ASSERT_LE(resume_round, s.fed_cfg.num_rounds);
      FailpointRegistry::Global().ClearAll();

      // Phase 3: replay the missing rounds on the healed environment.
      {
        CheckpointManager manager(stem, FastOptions(&fault, 2));
        s.Run(engine.get(), &manager, &fault, resume_round);
      }
      ASSERT_EQ(engine->rounds_consumed(), s.fed_cfg.num_rounds);
      Result<ValuationOutcome> out = engine->Finalize();
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_TRUE(out.value().fedsv_values.has_value());
      ASSERT_TRUE(out.value().comfedsv.has_value());
      ExpectBitIdentical(*out.value().fedsv_values, baseline_fedsv,
                         "FedSV after crash-recovery");
      ExpectBitIdentical(out.value().comfedsv->values, baseline_comfedsv,
                         "ComFedSV after crash-recovery");
      EXPECT_EQ(out.value().training.test_loss_history, baseline_history);
    }
  }
  // The sweep must actually have swept: every registered failpoint had
  // at least one scheduled kill.
  EXPECT_GE(sweeps, static_cast<int>(failpoints::All().size()));
}

// The round-log extension of the crash sweep: the schedule now spills
// every consumed round to a log, gets interrupted mid-run, resumes (the
// OpenForAppend truncation realigns the log), and finally re-values the
// whole trajectory from the log through the reader. Every round-log I/O
// failpoint — io/append_file, io/read_range, io/truncate — gets a kill
// at every opportunity; recovery must leave both
// the streamed valuation and the log-replayed valuation bit-identical
// to an uninterrupted run, and the log itself byte-identical.
TEST_F(IoRecoveryTest, CrashSweepCoversRoundLogFailpoints) {
  StreamScenario s;
  s.streaming.spill.enabled = true;
  constexpr int kInterruptRound = 2;  // the planned mid-run "kill"

  auto spill_engine = [&s](const std::string& log, FileEnv* env) {
    StreamingConfig cfg = s.streaming;
    cfg.spill.path = log;
    cfg.spill.env = env;
    return std::make_unique<StreamingValuationEngine>(
        &s.model, &s.w.test, StreamScenario::kClients, cfg);
  };
  // Feeds the engine rounds [first_round, stop_round), checkpointing
  // after each; bails out when the environment died.
  auto feed = [&s](StreamingValuationEngine* engine,
                   CheckpointManager* manager, FaultInjectingFileEnv* fault,
                   int first_round, int stop_round) {
    FedAvgTrainer trainer(&s.model, s.w.clients, s.w.test, s.fed_cfg);
    ASSERT_TRUE(trainer.Begin().ok());
    while (!trainer.Done()) {
      const RoundRecord& record = trainer.Step();
      if (record.round < first_round) continue;
      if (record.round >= stop_round) break;
      engine->OnRound(record);
      (void)engine->SaveCheckpoint(manager);
      if (fault != nullptr && fault->crashed()) return;
    }
  };

  // Uninterrupted spill run on the real environment: baseline values
  // and the byte-exact log a crash-recovered run must reproduce.
  Vector baseline_fedsv;
  Vector baseline_comfedsv;
  std::string baseline_log_bytes;
  const std::string clean_log = Dir("clean") + "/rounds.log";
  {
    auto engine = spill_engine(clean_log, nullptr);
    FedAvgTrainer trainer(&s.model, s.w.clients, s.w.test, s.fed_cfg);
    ASSERT_TRUE(trainer.Begin().ok());
    while (!trainer.Done()) engine->OnRound(trainer.Step());
    ASSERT_TRUE(engine->SyncSpill().ok());
    Result<ValuationOutcome> out = engine->Finalize();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    baseline_fedsv = *out.value().fedsv_values;
    baseline_comfedsv = out.value().comfedsv->values;
    Result<std::string> bytes = FileEnv::Real()->ReadFile(clean_log);
    ASSERT_TRUE(bytes.ok());
    baseline_log_bytes = bytes.value();
  }

  // Pilot with tracing: interrupted run -> resume (truncate + re-append)
  // -> log replay through the reader. This is the fault surface.
  FailpointRegistry::Global().set_tracing(true);
  {
    const std::string dir = Dir("pilot");
    const std::string stem = dir + "/stream.ckpt";
    const std::string log = dir + "/rounds.log";
    FaultInjectingFileEnv fault;
    {
      CheckpointManager manager(stem, FastOptions(&fault, 2));
      auto engine = spill_engine(log, &fault);
      feed(engine.get(), &manager, &fault, 0, kInterruptRound);
    }
    CheckpointManager manager(stem, FastOptions(&fault, 2));
    auto engine = spill_engine(log, &fault);
    ASSERT_TRUE(engine->RestoreCheckpoint(&manager).ok());
    ASSERT_EQ(engine->rounds_consumed(), kInterruptRound);
    feed(engine.get(), &manager, &fault, kInterruptRound,
         s.fed_cfg.num_rounds);
    ASSERT_EQ(engine->rounds_consumed(), s.fed_cfg.num_rounds);
    RoundLogReadOptions pilot_read;
    pilot_read.env = &fault;
    Result<ValuationOutcome> replayed =
        RunValuationFromLog(s.model, s.w.test, StreamScenario::kClients,
                            log, s.streaming.request, pilot_read);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  }
  std::map<std::string, int64_t> surface;
  for (const auto& [name, hits] : FailpointRegistry::Global().HitCounts()) {
    surface[name] = hits;
  }
  FailpointRegistry::Global().ClearAll();
  const std::vector<std::string> swept_names = {
      failpoints::kAppendFile, failpoints::kReadRange, failpoints::kTruncate};
  for (const std::string& name : swept_names) {
    ASSERT_GT(surface[name], 0) << name << " never hit in the pilot";
  }

  int sweeps = 0;
  for (const std::string& name : swept_names) {
    for (int64_t k = 1; k <= surface[name]; ++k) {
      SCOPED_TRACE(name + " @ hit " + std::to_string(k));
      ++sweeps;
      std::string label = name + "_" + std::to_string(k);
      for (char& c : label) {
        if (c == '/') c = '_';
      }
      const std::string dir = Dir(label);
      const std::string stem = dir + "/stream.ckpt";
      const std::string log = dir + "/rounds.log";
      FaultInjectingFileEnv fault;
      Arm(name.c_str(), FailpointTrigger::OnHit(k), FaultAction::kCrash,
          /*arg=*/7);

      // Phase 1: the interrupted run (the scheduled kill may land
      // earlier than the planned interruption).
      {
        CheckpointManager manager(stem, FastOptions(&fault, 2));
        auto doomed = spill_engine(log, &fault);
        feed(doomed.get(), &manager, &fault, 0, kInterruptRound);
      }

      // Phase 2: recover and replay, keeping the trigger armed — hit k
      // may belong to the resume's truncate/append segment. A crash
      // there gets another reboot and a clean retry.
      std::unique_ptr<StreamingValuationEngine> engine;
      bool replay_done = false;
      for (int attempt = 0; attempt < 3 && !replay_done; ++attempt) {
        fault.ClearCrash();
        engine = spill_engine(log, &fault);
        CheckpointManager manager(stem, FastOptions(&fault, 2));
        Status restored = engine->RestoreCheckpoint(&manager);
        int resume_round = -1;
        if (restored.ok()) {
          resume_round = engine->rounds_consumed();
        } else if (restored.code() == StatusCode::kNotFound &&
                   !fault.crashed()) {
          resume_round = 0;
        } else {
          continue;
        }
        feed(engine.get(), &manager, &fault, resume_round,
             s.fed_cfg.num_rounds);
        replay_done = !fault.crashed() &&
                      engine->rounds_consumed() == s.fed_cfg.num_rounds &&
                      engine->health().spill_failures == 0;
      }
      ASSERT_TRUE(replay_done) << "replay never settled";
      ASSERT_TRUE(engine->SyncSpill().ok());

      // Phase 3: re-value from the log, still under the armed trigger —
      // hit k may belong to the reader's segment.
      Vector log_fedsv;
      Vector log_comfedsv;
      bool read_done = false;
      for (int attempt = 0; attempt < 2 && !read_done; ++attempt) {
        fault.ClearCrash();
        RoundLogReadOptions sweep_read;
        sweep_read.env = &fault;
        Result<ValuationOutcome> replayed = RunValuationFromLog(
            s.model, s.w.test, StreamScenario::kClients, log,
            s.streaming.request, sweep_read);
        if (replayed.ok()) {
          log_fedsv = *replayed.value().fedsv_values;
          log_comfedsv = replayed.value().comfedsv->values;
          read_done = true;
        } else {
          FailpointRegistry::Global().ClearAll();
        }
      }
      ASSERT_TRUE(read_done) << "log replay never settled";
      FailpointRegistry::Global().ClearAll();

      // The streamed valuation, the log-replayed valuation, and the log
      // bytes themselves all match the uninterrupted run exactly.
      Result<ValuationOutcome> out = engine->Finalize();
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ExpectBitIdentical(*out.value().fedsv_values, baseline_fedsv,
                         "streamed FedSV after crash-recovery");
      ExpectBitIdentical(out.value().comfedsv->values, baseline_comfedsv,
                         "streamed ComFedSV after crash-recovery");
      ExpectBitIdentical(log_fedsv, baseline_fedsv,
                         "log-replayed FedSV after crash-recovery");
      ExpectBitIdentical(log_comfedsv, baseline_comfedsv,
                         "log-replayed ComFedSV after crash-recovery");
      Result<std::string> bytes = FileEnv::Real()->ReadFile(log);
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(bytes.value(), baseline_log_bytes)
          << "recovered log diverges from the uninterrupted run's";
    }
  }
  EXPECT_GE(sweeps, static_cast<int>(swept_names.size()));
}

// ---------------------------------------------------------------------
// Pipeline-level degradation.
// ---------------------------------------------------------------------

TEST_F(IoRecoveryTest, PipelineSurvivesCheckpointWriteFailures) {
  const int n = 3;
  Workload w = MakeWorkload(n, 606);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 3;
  fed_cfg.clients_per_round = 2;
  fed_cfg.seed = 61;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.fedsv.seed = 62;
  request.compute_comfedsv = false;

  Result<ValuationOutcome> straight =
      RunValuation(model, w.clients, w.test, fed_cfg, request);
  ASSERT_TRUE(straight.ok());

  FaultInjectingFileEnv fault;
  Arm(failpoints::kWriteFile, FailpointTrigger::EveryN(1), FaultAction::kError);

  CheckpointConfig ckpt;
  ckpt.path = Dir("pipeline") + "/run.ckpt";
  ckpt.every_rounds = 1;
  ckpt.keep_generations = 2;
  ckpt.max_retries = 0;
  ckpt.env = &fault;
  Result<ValuationOutcome> degraded = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, ckpt);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  // Every save failed, yet the run finished with correct values and an
  // honest health report.
  const StreamingHealth& health = degraded.value().health;
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.checkpoint_failures, fed_cfg.num_rounds);
  EXPECT_EQ(health.consecutive_failures, fed_cfg.num_rounds);
  EXPECT_EQ(health.rounds_since_durable, fed_cfg.num_rounds);
  EXPECT_FALSE(health.last_error.empty());
  ExpectBitIdentical(*degraded.value().fedsv_values,
                     *straight.value().fedsv_values,
                     "degraded-mode FedSV");

  // The strict policy turns the same failure into an abort.
  CheckpointConfig strict = ckpt;
  strict.path = Dir("pipeline_strict") + "/run.ckpt";
  strict.require_durable = true;
  Arm(failpoints::kWriteFile, FailpointTrigger::EveryN(1), FaultAction::kError);
  Result<ValuationOutcome> aborted = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, strict);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kUnavailable);
}

TEST_F(IoRecoveryTest, PipelineSurvivesRoundLogAppendFailures) {
  const int n = 3;
  Workload w = MakeWorkload(n, 808);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 3;
  fed_cfg.clients_per_round = 2;
  fed_cfg.seed = 81;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.fedsv.seed = 82;
  request.compute_comfedsv = false;

  Result<ValuationOutcome> straight =
      RunValuation(model, w.clients, w.test, fed_cfg, request);
  ASSERT_TRUE(straight.ok());

  // Every round-log append fails: the run still finishes with correct
  // values, and the engine's health counts one spill failure per round.
  FaultInjectingFileEnv fault;
  Arm(failpoints::kAppendFile, FailpointTrigger::EveryN(1),
      FaultAction::kError);
  CheckpointConfig ckpt;
  ckpt.path = Dir("spill") + "/run.ckpt";
  ckpt.round_log_path = Dir("spill") + "/rounds.log";
  ckpt.max_retries = 0;
  ckpt.env = &fault;
  Result<ValuationOutcome> degraded = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, ckpt);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded.value().health.spill_failures, fed_cfg.num_rounds);
  EXPECT_EQ(degraded.value().health.checkpoint_failures, 0);
  ExpectBitIdentical(*degraded.value().fedsv_values,
                     *straight.value().fedsv_values,
                     "FedSV with a failing round log");

  // The strict policy aborts on the first failed append.
  CheckpointConfig strict = ckpt;
  strict.path = Dir("spill_strict") + "/run.ckpt";
  strict.round_log_path = Dir("spill_strict") + "/rounds.log";
  strict.require_durable = true;
  Result<ValuationOutcome> aborted = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, strict);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(fs::exists(strict.path));  // aborted before round 0's save
}

TEST_F(IoRecoveryTest, PipelineResumeSalvagesOlderGeneration) {
  const int n = 3;
  Workload w = MakeWorkload(n, 707);
  LogisticRegression model(w.test.dim(), 10);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 3;
  fed_cfg.clients_per_round = 2;
  fed_cfg.seed = 71;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.fedsv.seed = 72;
  request.compute_comfedsv = false;

  Result<ValuationOutcome> straight =
      RunValuation(model, w.clients, w.test, fed_cfg, request);
  ASSERT_TRUE(straight.ok());

  // Kill the run after round 2: the round-3 save's file write crashes
  // the file system, and require_durable aborts there.
  FaultInjectingFileEnv fault;
  CheckpointConfig ckpt;
  ckpt.path = Dir("resume") + "/run.ckpt";
  ckpt.every_rounds = 1;
  ckpt.keep_generations = 3;
  ckpt.require_durable = true;
  ckpt.env = &fault;
  Arm(failpoints::kWriteFile, FailpointTrigger::OnHit(3), FaultAction::kCrash);
  ASSERT_FALSE(RunValuationCheckpointed(model, w.clients, w.test, fed_cfg,
                                        request, ckpt)
                   .ok());
  ASSERT_TRUE(fault.crashed());
  fault.ClearCrash();

  // Corrupt the newest generation: resume must fall back to the
  // round-1 checkpoint, quarantine the husk, and still finish
  // bit-identical.
  CheckpointManager inspect(ckpt.path, FastOptions(FileEnv::Real(), 3));
  auto generations = inspect.ListGenerations();
  ASSERT_EQ(generations.size(), 2u);  // rounds 1 and 2
  const std::string newest = generations.back().second;
  Result<std::string> bytes = FileEnv::Real()->ReadFile(newest);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  corrupted.back() ^= 0x40;
  ASSERT_TRUE(FileEnv::Real()->WriteFile(newest, corrupted).ok());

  Result<ValuationOutcome> resumed = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, ckpt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().health.quarantined_on_resume, 1);
  EXPECT_EQ(resumed.value().health.resumed_sequence, 1u);
  ExpectBitIdentical(*resumed.value().fedsv_values,
                     *straight.value().fedsv_values,
                     "salvaged resume FedSV");
}

}  // namespace
}  // namespace comfedsv
