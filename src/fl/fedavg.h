// FedAvg trainer (McMahan et al. 2017), as described in Sec. III of the
// paper: broadcast w^t, every client runs local stochastic gradient
// descent, the server selects I_t and averages the selected local models.
//
// Every client computes its local update each round even when unselected —
// that is how Algorithm 1 of the paper obtains the observable utility
// entries, and it costs no server communication for unselected clients.
//
// The trainer exposes two equivalent driving styles:
//   * `Train(observer)` — the original one-call batch run;
//   * the streaming lifecycle `Begin` / `Step` / `Finish`, which yields
//     one RoundRecord at a time and supports mid-run checkpointing
//     (`SaveState` / `RestoreState`): a run killed after round t and
//     restored from the round-t state continues bit-identically, because
//     per-round randomness is derived from (seed, round, client) and the
//     only sequentially advancing stream — client selection — is part of
//     the saved state.
#ifndef COMFEDSV_FL_FEDAVG_H_
#define COMFEDSV_FL_FEDAVG_H_

#include <memory>
#include <vector>

#include "common/execution_context.h"
#include "common/status.h"
#include "data/dataset.h"
#include "fl/config.h"
#include "fl/round_record.h"
#include "fl/selection.h"
#include "models/model.h"

namespace comfedsv {

/// Per-client accounting of the aggregation guard
/// (AggregationGuardConfig): how often each client's update was
/// rejected as non-finite, norm-clipped, or preemptively dropped under
/// quarantine, plus round-level degradation counters. A run containing
/// a NaN-corrupting client completes and reports here instead of
/// aborting.
struct QuarantineReport {
  /// Non-finite updates rejected, per client (length num_clients).
  std::vector<int64_t> rejected;
  /// Updates norm-clipped onto the clip sphere, per client.
  std::vector<int64_t> clipped;
  /// Rounds in which the client was preemptively dropped because its
  /// rejection count had reached AggregationGuardConfig::quarantine_after.
  std::vector<int64_t> quarantine_drops;
  /// Rounds where at least one selected update was rejected or dropped.
  int64_t rounds_degraded = 0;
  /// Rounds where *every* selected update was rejected — the global
  /// model carried over unchanged (the empty-round degradation path).
  int64_t rounds_fully_rejected = 0;

  /// True if client i is currently quarantined under `quarantine_after`
  /// (0 = never).
  bool IsQuarantined(int client, int quarantine_after) const {
    return quarantine_after > 0 &&
           rejected[static_cast<size_t>(client)] >= quarantine_after;
  }
};

/// Outcome of a FedAvg run.
struct TrainingResult {
  Vector final_params;
  /// Test loss of the global model before each round (length num_rounds),
  /// plus the final model's loss appended (length num_rounds + 1).
  std::vector<double> test_loss_history;
  /// Test accuracy of the final global model.
  double final_test_accuracy = 0.0;
  int rounds_run = 0;
  /// Aggregation-guard accounting for the whole run (all-zero when the
  /// guard never fired).
  QuarantineReport quarantine;
};

/// Checkpointable mid-training state: everything Step() consumes that is
/// not re-derivable from the (config, data, model) triple. Serialized by
/// io/checkpoint.h; restored via FedAvgTrainer::RestoreState.
struct FedAvgTrainerState {
  /// Fingerprint of the (config, data shape, model dim) the state was
  /// saved under; RestoreState rejects a mismatch instead of silently
  /// resuming a different run.
  uint64_t config_fingerprint = 0;
  /// Rounds already completed; Step() runs this round next.
  int next_round = 0;
  /// Global model w^{next_round}.
  Vector params;
  /// Test loss before each completed round (length next_round).
  std::vector<double> test_loss_history;
  /// The client-selection stream, advanced by `next_round` selections.
  RngState select_rng;
  /// Aggregation-guard accounting accumulated over the completed
  /// rounds. Part of the state so degraded (quarantine-active) runs
  /// resume bit-identically: the preemptive-drop decision of round t
  /// depends on the rejection counts accumulated before t.
  QuarantineReport quarantine;
};

/// Simulates FedAvg over in-memory client datasets.
class FedAvgTrainer {
 public:
  /// `model` must outlive the trainer. `client_data` entry i is client i's
  /// local dataset D_i; `test_data` is the server's test set D_c. `ctx`
  /// (optional; must outlive the trainer) parallelizes per-client local
  /// updates; results are identical for any thread count because every
  /// client draws from its own pre-split RNG stream and writes its own
  /// slot of the round record.
  FedAvgTrainer(const Model* model, std::vector<Dataset> client_data,
                Dataset test_data, FedAvgConfig config,
                ExecutionContext* ctx = nullptr);

  /// Runs the configured number of rounds. `observer` may be null; when
  /// given, OnRound fires once per round with all local updates.
  /// A custom `selector` may be passed; by default the trainer builds the
  /// config's SelectorKind, wrapped in EveryoneHeardSelector when
  /// config.select_all_first_round is set. Equivalent to Begin + Step
  /// loop + Finish.
  Result<TrainingResult> Train(RoundObserver* observer = nullptr,
                               ClientSelector* selector = nullptr);

  // --- Streaming lifecycle ---------------------------------------------

  /// Validates the config, (re)initializes the global model and the RNG
  /// streams, and arms Step(). `selector` as in Train; it must outlive
  /// the run. Calling Begin again restarts from round 0. Returns
  /// InvalidArgument naming the field for, among others, a
  /// participation_prob outside [0, 1], a learning rate whose base (or
  /// mu) is not finite and > 0 or whose gamma is not finite,
  /// local_steps below 1 or a negative batch_size.
  Status Begin(ClientSelector* selector = nullptr);

  /// True between Begin/RestoreState and the final Step.
  bool begun() const { return begun_; }
  /// Rounds completed so far (the round Step() would run next).
  int next_round() const { return next_round_; }
  bool Done() const { return next_round_ >= config_.num_rounds; }

  /// Runs one round — local updates, selection, aggregation — and
  /// returns its record (valid until the next Step/Begin call). Requires
  /// Begin() and !Done().
  const RoundRecord& Step();

  /// Final model metrics (including the quarantine report). Requires
  /// all rounds stepped (Done()). Returns NumericalError if the global
  /// model became non-finite during the run — possible only with
  /// `config.guard.reject_nonfinite` disabled (or honest numerical
  /// divergence); the guarded path degrades gracefully instead.
  Result<TrainingResult> Finish() const;

  /// Aggregation-guard accounting accumulated so far. Requires Begin().
  const QuarantineReport& quarantine_report() const {
    COMFEDSV_CHECK_MSG(begun_, "quarantine_report() before Begin()");
    return quarantine_;
  }

  // --- Checkpointing ---------------------------------------------------

  /// Snapshot of the mid-run state after any number of Step()s.
  /// Requires Begin().
  FedAvgTrainerState SaveState() const;

  /// Rewinds/forwards the run to `state` (saved from a trainer with an
  /// identical config/data/model fingerprint). Implies Begin(selector).
  /// After a successful restore the trainer continues from
  /// state.next_round bit-identically to the run that saved it.
  Status RestoreState(const FedAvgTrainerState& state,
                      ClientSelector* selector = nullptr);

  /// Fingerprint of this trainer's (config, full data contents, model
  /// identity incl. hyperparameters — Model::MixFingerprint) — the
  /// compatibility key checked by RestoreState: a checkpoint saved
  /// under different data or a different model must not resume.
  uint64_t ConfigFingerprint() const;

  int num_clients() const { return static_cast<int>(client_data_.size()); }
  const Dataset& test_data() const { return test_data_; }
  const FedAvgConfig& config() const { return config_; }

 private:
  // One client's local training from `start` for config_.local_steps.
  Vector LocalUpdate(int client, const Vector& start, double lr,
                     Rng* client_rng) const;

  // Validates the config and installs the run's selector (building the
  // config default when `selector` is null).
  Status Arm(ClientSelector* selector);

  const Model* model_;
  std::vector<Dataset> client_data_;
  Dataset test_data_;
  FedAvgConfig config_;
  ExecutionContext* ctx_;  // not owned; null = inline execution
  /// Content hash of (client_data, test_data): O(data) to compute, so
  /// it is evaluated lazily on the first ConfigFingerprint() call and
  /// cached (the datasets are immutable after construction).
  mutable uint64_t data_fingerprint_ = 0;
  mutable bool data_fingerprint_computed_ = false;

  // Applies the aggregation guard (quarantine drops, non-finite
  // rejection, norm clipping) to the freshly selected round; runs
  // sequentially so results are thread-count invariant.
  void ApplyAggregationGuard();

  /// Compiled adversarial population (null when config.adversary is
  /// empty or invalid); built once at construction, which is also when
  /// the data-poisoning behaviors are applied to client_data_.
  std::unique_ptr<AdversaryModel> adversary_;
  /// Validation outcome of config.adversary/config.guard at
  /// construction; surfaced by Begin()/Train() instead of crashing.
  Status adversary_status_ = Status::Ok();

  // Lifecycle state (valid while begun_).
  bool begun_ = false;
  int next_round_ = 0;
  Vector params_;
  std::vector<double> test_loss_history_;
  Rng select_rng_{0};
  ClientSelector* selector_ = nullptr;  // not owned (may be default_...)
  std::unique_ptr<ClientSelector> default_selector_;
  RoundRecord record_;
  QuarantineReport quarantine_;
  /// Set when aggregation produced a non-finite global model (only
  /// reachable with the guard disabled); Finish() turns it into a
  /// NumericalError instead of handing poisoned params downstream.
  int poisoned_at_round_ = -1;
};

}  // namespace comfedsv

#endif  // COMFEDSV_FL_FEDAVG_H_
