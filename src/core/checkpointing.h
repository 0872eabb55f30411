// Whole-pipeline checkpointing: composes the io/ building blocks into a
// single versioned checkpoint of a mid-flight valuation run — trainer
// state plus the accumulated state of every requested evaluator — so a
// run killed after round t resumes from the round-t file and produces
// bit-identical final values (tests/determinism_test.cc enforces this).
//
// File layout: the io/serialize.h container (magic "CFSV", version,
// checksum) around one kValuationCheckpoint chunk holding the
// config/data fingerprint, the trainer state, and one presence-flagged
// state chunk per evaluator. See README.md "Checkpointing & streaming
// valuation".
#ifndef COMFEDSV_CORE_CHECKPOINTING_H_
#define COMFEDSV_CORE_CHECKPOINTING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/evaluator.h"
#include "fl/fedavg.h"
#include "io/checkpoint.h"
#include "io/checkpoint_manager.h"
#include "io/round_log.h"
#include "io/serialize.h"
#include "shapley/fedsv.h"

namespace comfedsv {

struct ValuationRequest;  // core/pipeline.h

/// Where and how often RunValuationCheckpointed persists its state.
struct CheckpointConfig {
  /// Checkpoint file (or, with keep_generations >= 2, the stem of the
  /// rotated generation files `path.<seq>`). Each save is atomic (write
  /// to a `.tmp`, fsync, rename), so a crash never corrupts the last
  /// good checkpoint.
  std::string path;
  /// Save after every k-th completed round (and always after the last).
  int every_rounds = 1;
  /// Load the newest resumable checkpoint before round 0 when one
  /// exists. A checkpoint written under a different config/data/model is
  /// an error, not a silent restart.
  bool resume = true;

  // Durability policy, forwarded to the CheckpointManager (see
  // io/checkpoint_manager.h for the rotation / retry / salvage
  // contract).

  /// 1 (default) = the legacy single file at exactly `path`;
  /// >= 2 = rotated generations with salvage fallback on resume.
  /// < 1 is an InvalidArgument.
  int keep_generations = 1;
  /// Retries per transient (Unavailable) I/O failure. Must be >= 0
  /// (InvalidArgument otherwise).
  int max_retries = 2;
  /// Base of the deterministic exponential retry backoff, ms.
  int retry_backoff_ms = 5;
  /// When true, the first round-log append or sync, or cadence save,
  /// that still fails after retries aborts the run. Default: the run
  /// degrades — it keeps training on the last good in-memory state and
  /// reports the failures in ValuationOutcome::health.
  bool require_durable = false;
  /// File system override for fault injection; nullptr = real.
  FileEnv* env = nullptr;

  // Spill-to-log (io/round_log.h): when round_log_path is non-empty,
  // every RoundRecord the run consumes is appended to a round log
  // there, fsynced before each cadence checkpoint. A resumed run
  // truncates the log back to the checkpointed round before appending,
  // so the final log is byte-identical to an uninterrupted run's —
  // RunValuationFromLog can then re-value the whole trajectory with
  // bounded resident memory.

  /// Round-log data file; `<path>.idx` holds the footer index. Empty =
  /// spill off.
  std::string round_log_path;
  /// On-disk encoding; kNone replays bit-identically, kQuant16 trades
  /// bounded valuation drift for space (tests/io_roundlog_test.cc).
  RoundLogCompression round_log_compression = RoundLogCompression::kNone;
  /// Persist the footer index every k-th append.
  int round_log_index_every = 1;
};

/// How a valuation run's fallible operations (snapshot re-solves,
/// round-log spill, checkpoint writes and restores) have fared. The
/// StreamingValuationEngine survives every failure kind by retaining its
/// last good state; this reports how much trust that state deserves —
/// "completed, fully durable" versus "completed, but the last k saves
/// failed and a crash would lose those rounds". Carried in
/// ValuationOutcome::health.
struct StreamingHealth {
  /// True while the most recent fallible operation failed; clears as
  /// soon as one succeeds (the engine recovered).
  bool degraded = false;
  /// Snapshot() calls whose re-solve failed and were served from the
  /// previous solve's output instead.
  int64_t stale_snapshots = 0;
  /// Checkpoint saves that failed after the manager's retries.
  int64_t checkpoint_failures = 0;
  /// Failures since the last successful solve/save (0 when healthy).
  int64_t consecutive_failures = 0;
  /// Last error observed; empty when none ever occurred.
  std::string last_error;
  /// Rounds consumed since the last durable checkpoint (what a crash
  /// right now would lose). Counts from engine construction until the
  /// first successful checkpoint save or restore.
  int64_t rounds_since_durable = 0;
  /// Round-log opens, appends and syncs that failed (spill mode only).
  /// The engine keeps streaming — the record still fed the evaluators —
  /// but replaying the log will be missing those rounds until a later
  /// resume truncates back past the gap.
  int64_t spill_failures = 0;
  /// Corrupt generations quarantined to `*.corrupt` by the last
  /// checkpoint restore.
  int quarantined_on_resume = 0;
  /// Header sequence of the generation the last restore loaded (0 when
  /// nothing was restored).
  uint64_t resumed_sequence = 0;
  /// Orphaned `.tmp` files the last restore's startup sweep removed.
  int orphans_swept = 0;
};

/// Fingerprint of everything a checkpoint must agree on to be resumable:
/// the trainer's (config, full data contents, model identity)
/// fingerprint mixed with every field of the valuation request. Two
/// runs with equal fingerprints record identical per-round state.
uint64_t ValuationFingerprint(const FedAvgTrainer& trainer,
                              const ValuationRequest& request);

/// The request-only contribution to ValuationFingerprint — also the
/// compatibility key of StreamingValuationEngine state, which has no
/// trainer attached.
uint64_t RequestFingerprint(const ValuationRequest& request);

// State-chunk serializers for the evaluator states (io/checkpoint.h
// covers the lower-level types). Same contract: Save* writes one chunk,
// Load* validates tag/length/invariants and returns Status.
void SaveFedSvState(const FedSvEvaluatorState& s, BinaryWriter* out);
Status LoadFedSvState(BinaryReader* in, FedSvEvaluatorState* s);

void SaveFullRecorderState(const FullRecorderState& s, BinaryWriter* out);
Status LoadFullRecorderState(BinaryReader* in, FullRecorderState* s);

void SaveObservedRecorderState(const ObservedRecorderState& s,
                               BinaryWriter* out);
Status LoadObservedRecorderState(BinaryReader* in,
                                 ObservedRecorderState* s);

void SaveSampledRecorderState(const SampledRecorderState& s,
                              BinaryWriter* out);
Status LoadSampledRecorderState(BinaryReader* in, SampledRecorderState* s);

/// Presence-flagged state sequence for the three optional evaluators —
/// the shared middle section of both the pipeline's
/// kValuationCheckpoint chunk and the streaming engine's
/// kStreamingEngineState chunk. Save records each evaluator as
/// present/absent (plus the ComFedSV full-vs-sampled mode flag); Load
/// requires the flags to match the evaluators passed in, parses every
/// state chunk, and only then applies the restores. If an apply-phase
/// restore fails (a checksum-valid but structurally inconsistent
/// state), the evaluators may be left partially restored — callers must
/// treat any error as fatal and discard the components.
void SaveEvaluatorStates(const FedSvEvaluator* fedsv,
                         const ComFedSvEvaluator* comfedsv,
                         const GroundTruthEvaluator* ground_truth,
                         BinaryWriter* out);
Status LoadEvaluatorStates(BinaryReader* in, FedSvEvaluator* fedsv,
                           ComFedSvEvaluator* comfedsv,
                           GroundTruthEvaluator* ground_truth);

/// Serializes the composite checkpoint payload (one kValuationCheckpoint
/// chunk) for the given mid-run pipeline state — the bytes
/// StreamingValuationEngine::SaveCheckpoint hands CheckpointManager::Write
/// when it checkpoints together with a trainer.
std::string SerializeValuationCheckpoint(
    uint64_t fingerprint, const FedAvgTrainer& trainer,
    const FedSvEvaluator* fedsv, const ComFedSvEvaluator* comfedsv,
    const GroundTruthEvaluator* ground_truth);

/// Parses a SerializeValuationCheckpoint payload and applies it to the
/// components. Returns DataLoss for corrupt bytes, FailedPrecondition
/// for a fingerprint/request mismatch. On error the components may be
/// partially restored — retry only by restoring another (complete)
/// payload over them, or discard them.
Status RestoreValuationCheckpoint(std::string_view payload,
                                  uint64_t fingerprint,
                                  FedAvgTrainer* trainer,
                                  FedSvEvaluator* fedsv,
                                  ComFedSvEvaluator* comfedsv,
                                  GroundTruthEvaluator* ground_truth);

}  // namespace comfedsv

#endif  // COMFEDSV_CORE_CHECKPOINTING_H_
