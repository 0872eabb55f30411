// StreamingValuationEngine: valuation over rounds that arrive one at a
// time, instead of one batch pass after training ends.
//
// The paper's protocol (Fig. 4) trains T rounds and then values clients
// once; ComFedSV's structure is friendlier than that: per-round
// observations only accumulate, and the low-rank completion (Eq. 12) can
// be re-solved from them after any prefix of rounds. The engine exploits
// exactly that:
//
//   * OnRound(record) appends the round's observations incrementally —
//     running FedSV sums, ComFedSV recorder triplets, optional
//     ground-truth rows. The round's evaluators share one coalition memo
//     (shapley/utility.h), so a coalition two of them need costs one
//     test loss: exact FedSV and full ComFedSV read the same subsets of
//     the selected set. Values and per-evaluator stats are those of the
//     evaluators driven on their own; ValuationOutcome::
//     measured_loss_calls is what the memos actually ran.
//   * Snapshot() produces a ValuationOutcome for the consumed prefix at
//     any time. The expensive part (the completion solve) is re-run only
//     every `resolve_cadence` new rounds and warm-starts from the
//     previous solve's factors (CompleteMatrixWarm), which reaches the
//     same final objective in fewer sweeps than a cold solve
//     (perfbench's `completion.warm_sweeps` tracks the warm count).
//   * Finalize() is the batch-equivalent read: a cold solve exactly like
//     ComFedSvEvaluator::Finalize, so after the full round sequence its
//     outputs are bit-identical to RunValuation on the same trajectory
//     (tests/determinism_test.cc enforces this).
//   * SaveCheckpoint/RestoreCheckpoint persist the whole engine
//     mid-stream — alone (io chunk kStreamingEngineState), or together
//     with the FedAvgTrainer feeding it (kValuationCheckpoint, the
//     RunValuationCheckpointed format) for crash-safe valuation.
//
// RunValuation, RunValuationCheckpointed and RunValuationFromLog are
// thin loops over this engine, so it is the single owner of the
// evaluators, the round-log spill and the StreamingHealth bookkeeping.
#ifndef COMFEDSV_CORE_STREAMING_H_
#define COMFEDSV_CORE_STREAMING_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/execution_context.h"
#include "core/checkpointing.h"
#include "core/pipeline.h"
#include "io/round_log.h"

namespace comfedsv {

class CheckpointManager;  // io/checkpoint_manager.h

/// Spill-to-log policy: mirror every consumed RoundRecord into an
/// on-disk round log (io/round_log.h) as it streams past, so the full
/// trajectory can be re-valued later (RunValuationFromLog) with bounded
/// resident memory.
struct RoundLogSpillConfig {
  bool enabled = false;
  /// Data file path; the footer index rides at `<path>.idx`.
  std::string path;
  RoundLogCompression compression = RoundLogCompression::kNone;
  /// Forwarded to RoundLogOptions::index_every.
  int index_every = 1;
  /// File system override for fault injection; nullptr = real.
  FileEnv* env = nullptr;
};

/// Streaming-engine policy around a ValuationRequest.
struct StreamingConfig {
  /// Which metrics to maintain; semantics identical to RunValuation.
  ValuationRequest request;
  /// Snapshot() re-solves the completion only once at least this many
  /// new rounds arrived since the last solve (1 = every snapshot sees
  /// fresh factors; larger amortizes the solve over more rounds).
  /// Snapshots in between reuse the previous ComFedSV output with
  /// up-to-date FedSV / ground-truth values. Below 1, Snapshot() returns
  /// InvalidArgument (Consume and Finalize do not read it).
  int resolve_cadence = 1;
  /// Warm-start each re-solve from the previous factors. Off = every
  /// snapshot solve is cold (only useful for measuring the warm-start
  /// advantage; Finalize() is always cold regardless).
  bool warm_start = true;
  /// Sweep cap for warm re-solves; 0 keeps the request's
  /// completion.max_iters.
  int warm_max_iters = 0;
  /// Mirror consumed rounds into an on-disk round log. The log stays
  /// aligned with checkpoints: SaveCheckpoint syncs it first, and the
  /// first OnRound after a restore truncates it back to the restored
  /// round, so kill/resume leaves the log byte-identical to an
  /// uninterrupted run's.
  RoundLogSpillConfig spill;
};

/// Consumes RoundRecords one at a time and serves valuation snapshots
/// after any prefix. Register as the trainer's RoundObserver (alone or
/// in a FanoutObserver).
class StreamingValuationEngine : public RoundObserver {
 public:
  /// `model` / `test_data` as for the evaluators (must outlive the
  /// engine; `test_data` is the server test set the trainer holds).
  /// `ctx` (optional) parallelizes recording and solves; outputs are
  /// bit-identical for any thread count. The request is checked with
  /// ValidateRequest: an invalid one builds no evaluator, and Consume,
  /// Snapshot, Finalize, SaveCheckpoint, RestoreCheckpoint and
  /// RestoreState return its InvalidArgument.
  StreamingValuationEngine(const Model* model, const Dataset* test_data,
                           int num_clients, StreamingConfig config,
                           ExecutionContext* ctx = nullptr);

  void OnRound(const RoundRecord& record) override { (void)Consume(record); }

  /// OnRound that reports the spill: feeds every evaluator through one
  /// shared memo of the round, then returns the round-log open/append
  /// Status (Ok when spill is off). A failure is also recorded in
  /// health(); the record was consumed either way.
  ///
  /// The order is ComFedSV, then FedSV, then the ground truth. Each
  /// evaluator's transient buffers stack on the memo entries of those
  /// fed before it, so the sampled recorder goes first: its one batch of
  /// every observable prefix (all M x N of them in Assumption 1's
  /// all-client round) is a sampled run's largest transient set. The
  /// ground truth reads a superset of the others' coalitions, so its
  /// place does not change the peak.
  Status Consume(const RoundRecord& record);

  /// Rounds consumed so far (including empty-selected rounds, which
  /// contribute zero everywhere).
  int rounds_consumed() const { return rounds_consumed_; }

  /// Valuation of the consumed prefix. `training` carries only the
  /// prefix view (rounds_run, per-round test losses); final_params and
  /// accuracy belong to the trainer. ComFedSV factors refresh per the
  /// resolve cadence and warm-start policy; FedSV and ground truth are
  /// always current. Requires at least one recorded (non-empty) round
  /// when ComFedSV or the ground truth is on.
  ///
  /// Graceful degradation: if the cadence re-solve fails but a previous
  /// solve's output exists, the snapshot is served from that last good
  /// output (FedSV / ground truth still current) and health() reports
  /// the failure instead of the call erroring out. The next successful
  /// solve clears the degraded state. A solve failure with no previous
  /// output to fall back on is still an error, and so is a
  /// resolve_cadence below 1 (InvalidArgument).
  Result<ValuationOutcome> Snapshot();

  /// Degraded-mode bookkeeping (stale snapshots, failed saves).
  const StreamingHealth& health() const { return health_; }

  /// Persists the engine state through `manager` (one generation;
  /// rotation/retry per the manager's options). Without `trainer` the
  /// generation is a kStreamingEngineState chunk. With it, it is the
  /// kValuationCheckpoint payload RunValuationCheckpointed resumes from:
  /// SerializeValuationCheckpoint over the trainer and this engine's
  /// evaluators (so the warm-start factors are not saved). In spill mode
  /// the round log is synced first — a checkpoint never references log
  /// bytes that are not on disk. A failure is recorded in health() and
  /// returned, but leaves the engine fully usable — streaming continues
  /// on the in-memory state and the next save retries from scratch.
  Status SaveCheckpoint(CheckpointManager* manager,
                        const FedAvgTrainer* trainer = nullptr);

  /// Sweeps orphaned `.tmp` files, then restores the newest resumable
  /// generation SaveCheckpoint wrote with the same `trainer` argument,
  /// quarantining corrupt ones on the way (salvage). With `trainer`, the
  /// trainer is restored too, and the consumed-round count and loss
  /// history are taken from it. NotFound means nothing to restore (the
  /// engine is untouched); on other errors discard the engine (and
  /// trainer) as for RestoreState.
  Status RestoreCheckpoint(CheckpointManager* manager,
                           FedAvgTrainer* trainer = nullptr);

  /// Batch-equivalent valuation of the consumed prefix: always a cold
  /// completion solve, bit-identical to RunValuation's outputs on the
  /// same rounds. Does not disturb the warm-start cache.
  Result<ValuationOutcome> Finalize() const;

  /// Spill mode only: fsyncs the round log and persists its footer
  /// index. No-op Ok when spill is off or no round has been spilled.
  Status SyncSpill();

  /// The spill writer, for observability (rounds, bytes). Null until
  /// the first spilled round, and always null when spill is off.
  const RoundLogWriter* spill_writer() const { return spill_writer_.get(); }

  /// Serializes the engine state (one kStreamingEngineState chunk):
  /// consumed-round count, per-metric accumulations, and the warm-start
  /// factor cache.
  void SaveState(BinaryWriter* out) const;

  /// Restores a SaveState snapshot taken by an engine with an identical
  /// (num_clients, request) — enforced via fingerprint. The first
  /// Snapshot() after a restore re-solves (warm from the restored
  /// factors). On an error Status the engine may be left partially
  /// restored: discard it and construct a fresh engine to retry.
  Status RestoreState(BinaryReader* in);

 private:
  uint64_t ConfigFingerprint() const;
  /// The outcome around a ComFedSV output: the consumed-prefix training
  /// view, current FedSV and ground-truth values, and health().
  Result<ValuationOutcome> Outcome(
      std::optional<ComFedSvOutput> comfedsv) const;
  /// Appends `record` to the round log, lazily opening the writer —
  /// Create on a fresh stream, OpenForAppend(rounds_consumed_) when
  /// resuming over an existing log. Failures degrade health instead of
  /// poisoning the stream, and are returned.
  Status SpillRound(const RoundRecord& record);
  /// Records a failed operation in health_: degraded, `*counter` and
  /// consecutive_failures up, `failure` kept as last_error. Returns it.
  Status Degrade(int64_t* counter, Status failure);
  /// A checkpoint save or restore succeeded: the engine is durable.
  void MarkDurable();

  const Model* model_;
  const Dataset* test_data_;
  int num_clients_;
  StreamingConfig config_;
  ExecutionContext* ctx_;  // not owned; null = inline execution
  /// ValidateRequest's verdict on config_.request; not Ok = no
  /// evaluators were built.
  Status request_status_;

  std::unique_ptr<FedSvEvaluator> fedsv_;
  std::unique_ptr<ComFedSvEvaluator> comfedsv_;
  std::unique_ptr<GroundTruthEvaluator> ground_truth_;

  int rounds_consumed_ = 0;
  /// Test losses the shared round memos ran in this process; not
  /// checkpointed (ValuationOutcome::measured_loss_calls).
  int64_t measured_loss_calls_ = 0;
  std::vector<double> test_loss_history_;
  StreamingHealth health_;

  // Warm-start cache: factors and output of the last snapshot solve.
  std::optional<FactorPair> factors_;
  std::optional<ComFedSvOutput> last_output_;
  int last_solve_round_ = -1;

  // Spill mode: lazily opened round-log writer. After RestoreState the
  // writer is reset so the next spilled round realigns the log (via
  // OpenForAppend truncation) with the restored position.
  std::unique_ptr<RoundLogWriter> spill_writer_;
  // Log position recorded by the restored checkpoint: the realigned log
  // must land on exactly these bytes. -1 = no pending verification.
  int restored_spill_rounds_ = -1;
  uint64_t restored_spill_bytes_ = 0;
};

}  // namespace comfedsv

#endif  // COMFEDSV_CORE_STREAMING_H_
