// Resume after a crash: kill a checkpointed valuation run mid-training,
// restart it from the checkpoint file, and verify the final values are
// bit-identical to an uninterrupted run.
//
//   1. run RunValuationCheckpointed on a fault-injecting file system
//      whose checkpoint save after round 4 of 8 "crashes" (stands in
//      for a real kill -9 — the process state is discarded either way;
//      only the checkpoint files survive),
//   2. call RunValuationCheckpointed again with the same inputs: it
//      finds the round-4 checkpoint and replays only rounds 5..8,
//   3. compare against a straight (never-interrupted) run,
//   4. repeat keeping three generations (keep_generations=3) with a
//      deliberately corrupted newest checkpoint: the resume quarantines
//      the corrupt file to `*.corrupt`, falls back to the next-newest
//      generation, and still finishes bit-identical.
//
// Exits non-zero when either resumed run differs from the straight one.
// It writes `resume_example*.ckpt.*` files into the working directory
// and removes them before it returns.
//
// Build & run:  ./build/examples/example_resume_after_crash
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "common/failpoint.h"
#include "core/comfedsv_api.h"
#include "io/checkpoint_manager.h"
#include "io/file_env.h"

namespace {

using namespace comfedsv;

// A disk that crashes on the `crash_at`-th checkpoint save. A save is
// counted by its write of a `stem.<seq>.tmp` generation file, so the
// crash stays on the named round when a round log
// (CheckpointConfig::round_log_path) writes through the same disk.
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

// Runs `checkpoint` until the save after round `round` is durable, then
// kills it: the next checkpoint save puts the file system into a sticky
// crashed state, and require_durable stops the run right there.
Status RunUntilCrash(const Model& model, const std::vector<Dataset>& clients,
                     const Dataset& test, const FedAvgConfig& fed,
                     const ValuationRequest& request,
                     CheckpointConfig checkpoint, int round) {
  CrashOnSaveEnv crashing_disk(checkpoint.path,
                               round / checkpoint.every_rounds + 1);
  checkpoint.env = &crashing_disk;
  checkpoint.require_durable = true;
  Result<ValuationOutcome> run = RunValuationCheckpointed(
      model, clients, test, fed, request, checkpoint);
  FailpointRegistry::Global().ClearAll();
  return run.status();
}

// Removes the generation files `path.<seq>` of a checkpoint stream.
void RemoveGenerations(const std::string& path) {
  for (const auto& [seq, file] : CheckpointManager(path).ListGenerations()) {
    std::remove(file.c_str());
  }
}

}  // namespace

int main() {

  // Small federated workload (see quickstart.cc for the walkthrough).
  SimulatedImageConfig data_cfg;
  data_cfg.family = ImageFamily::kMnist;
  data_cfg.num_samples = 500;
  data_cfg.seed = 1;
  Dataset pool = GenerateSimulatedImages(data_cfg);
  data_cfg.num_samples = 120;
  data_cfg.seed = 2;
  Dataset test = GenerateSimulatedImages(data_cfg);
  Rng rng(3);
  std::vector<Dataset> clients = PartitionIid(pool, 5, &rng);
  LogisticRegression model(pool.dim(), 10, /*l2_penalty=*/1e-3);

  FedAvgConfig fed;
  fed.num_rounds = 8;
  fed.clients_per_round = 3;
  fed.select_all_first_round = true;
  fed.lr = LearningRateSchedule::Constant(0.3);
  fed.seed = 4;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  request.fedsv.permutations_per_round = 8;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 8;
  request.comfedsv.completion.rank = 3;
  request.comfedsv.completion.lambda = 1e-4;

  CheckpointConfig checkpoint;
  checkpoint.path = "resume_example.ckpt";
  checkpoint.every_rounds = 1;
  RemoveGenerations(checkpoint.path);

  // 1. First attempt "crashes" after round 4. Every completed round was
  //    checkpointed (atomically: write + rename) into its own
  //    generation file, so the round-4 state is on disk when the
  //    process dies.
  Status crashed =
      RunUntilCrash(model, clients, test, fed, request, checkpoint, 4);
  std::printf("first run:  %s\n", crashed.ToString().c_str());

  // 2. Second attempt resumes from the checkpoint: rounds 1..4 are not
  //    recomputed; training and every valuation stream continue from
  //    the saved state.
  Result<ValuationOutcome> resumed = RunValuationCheckpointed(
      model, clients, test, fed, request, checkpoint);
  if (!resumed.ok()) {
    std::fprintf(stderr, "resume failed: %s\n",
                 resumed.status().ToString().c_str());
    return 1;
  }
  std::printf("second run: resumed from round 4 and finished %d rounds\n",
              resumed.value().training.rounds_run);

  // 3. Reference: the same run never interrupted.
  Result<ValuationOutcome> straight =
      RunValuation(model, clients, test, fed, request);
  if (!straight.ok()) {
    std::fprintf(stderr, "straight run failed: %s\n",
                 straight.status().ToString().c_str());
    return 1;
  }

  Table table({"client", "FedSV (resumed)", "FedSV (straight)",
               "ComFedSV (resumed)", "ComFedSV (straight)"});
  bool identical = true;
  for (int i = 0; i < 5; ++i) {
    const double f_resumed = (*resumed.value().fedsv_values)[i];
    const double f_straight = (*straight.value().fedsv_values)[i];
    const double c_resumed = resumed.value().comfedsv->values[i];
    const double c_straight = straight.value().comfedsv->values[i];
    identical = identical && std::memcmp(&f_resumed, &f_straight, 8) == 0 &&
                std::memcmp(&c_resumed, &c_straight, 8) == 0;
    table.AddRow({std::to_string(i), Table::Num(f_resumed, 12),
                  Table::Num(f_straight, 12), Table::Num(c_resumed, 12),
                  Table::Num(c_straight, 12)});
  }
  std::printf("\n%s", table.ToText().c_str());
  std::printf("\nresumed == straight, bit for bit: %s\n",
              identical ? "yes" : "NO (bug!)");
  RemoveGenerations(checkpoint.path);

  // 4. Generation fallback: keeping older generations around means even
  //    a checkpoint that goes bad *on disk* (bit rot, torn rename) costs
  //    one generation of progress, not the run.
  CheckpointConfig rotated = checkpoint;
  rotated.path = "resume_example_rotated.ckpt";
  rotated.keep_generations = 3;
  RemoveGenerations(rotated.path);
  Status crashed2 =
      RunUntilCrash(model, clients, test, fed, request, rotated, 4);
  std::printf("\nrotated run: %s\n", crashed2.ToString().c_str());

  // Corrupt the newest generation the crash left behind.
  const auto generations = CheckpointManager(rotated.path).ListGenerations();
  if (generations.empty()) {
    std::fprintf(stderr, "the crashed run left no checkpoint generation\n");
    return 1;
  }
  const std::string& newest = generations.back().second;
  Result<std::string> bytes = FileEnv::Real()->ReadFile(newest);
  if (!bytes.ok()) {
    std::fprintf(stderr, "read failed: %s\n",
                 bytes.status().ToString().c_str());
    return 1;
  }
  std::string corrupted = bytes.value();
  corrupted[corrupted.size() / 2] ^= 0x40;
  if (!FileEnv::Real()->WriteFile(newest, corrupted).ok()) return 1;
  std::printf("corrupted newest generation %s (%zu generations on disk)\n",
              newest.c_str(), generations.size());

  Result<ValuationOutcome> salvaged = RunValuationCheckpointed(
      model, clients, test, fed, request, rotated);
  if (!salvaged.ok()) {
    std::fprintf(stderr, "salvaged resume failed: %s\n",
                 salvaged.status().ToString().c_str());
    return 1;
  }
  const StreamingHealth& health = salvaged.value().health;
  std::printf(
      "salvaged resume: quarantined %d corrupt generation(s), resumed "
      "from sequence %llu, finished %d rounds\n",
      health.quarantined_on_resume,
      static_cast<unsigned long long>(health.resumed_sequence),
      salvaged.value().training.rounds_run);

  bool salvage_identical = true;
  for (int i = 0; i < 5; ++i) {
    const double f_salvaged = (*salvaged.value().fedsv_values)[i];
    const double f_straight = (*straight.value().fedsv_values)[i];
    salvage_identical =
        salvage_identical && std::memcmp(&f_salvaged, &f_straight, 8) == 0;
  }
  std::printf("salvaged == straight, bit for bit: %s\n",
              salvage_identical ? "yes" : "NO (bug!)");
  RemoveGenerations(rotated.path);
  std::remove((newest + ".corrupt").c_str());
  return identical && salvage_identical ? 0 : 1;
}
