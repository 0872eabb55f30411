// One-call valuation pipeline (Fig. 4 of the paper): run FedAvg once and
// compute any combination of FedSV, ComFedSV, and the ground truth on the
// *same* training trajectory — exactly the paper's comparison protocol
// ("the global models will be the same for all three metrics").
#ifndef COMFEDSV_CORE_PIPELINE_H_
#define COMFEDSV_CORE_PIPELINE_H_

#include <optional>
#include <vector>

#include "common/execution_context.h"
#include "core/checkpointing.h"
#include "core/evaluator.h"
#include "fl/fedavg.h"
#include "shapley/fedsv.h"

namespace comfedsv {

/// Which valuation metrics to compute during the run.
struct ValuationRequest {
  bool compute_fedsv = true;
  FedSvConfig fedsv;

  bool compute_comfedsv = true;
  ComFedSvConfig comfedsv;

  /// Ground truth needs num_clients <= 16 (full 2^N recording).
  bool compute_ground_truth = false;
};

/// Everything a valuation run produces.
struct ValuationOutcome {
  TrainingResult training;

  std::optional<Vector> fedsv_values;
  int64_t fedsv_loss_calls = 0;
  /// Measured FedSV evaluation accounting (loss calls, batch passes,
  /// memo hits); ComFedSV's equivalent rides inside `comfedsv->stats`.
  UtilityStats fedsv_stats;

  std::optional<ComFedSvOutput> comfedsv;

  std::optional<Vector> ground_truth_values;
  int64_t ground_truth_loss_calls = 0;

  /// How the run's spill and checkpoint I/O fared (failed saves
  /// survived in degraded mode, salvage activity at resume). A run that
  /// neither checkpoints nor spills reports no failures, and counts
  /// every round in rounds_since_durable.
  StreamingHealth health;
};

/// Runs FedAvg over `client_data` and evaluates the requested metrics.
/// `model` must outlive the call. When the request includes ComFedSV in
/// kFull mode or the ground truth, `fed_config.select_all_first_round`
/// must be true (Assumption 1).
///
/// Every RunValuation* driver checks the request before building any
/// component, and returns InvalidArgument naming the field for no
/// clients, a ground truth over more than 16 clients, a kFull ComFedSV
/// over more than 20 (Assumption 1's all-client round 0 records 2^N
/// utilities), or a truncated ComFedSV sampler with a negative
/// truncation_tolerance.
///
/// `ctx` (optional) parallelizes the whole pipeline — local client
/// updates, per-round Shapley sampling and utility recording, and the
/// completion solve. All valuation outputs are bit-identical for any
/// thread count (tests/determinism_test.cc).
Result<ValuationOutcome> RunValuation(const Model& model,
                                      std::vector<Dataset> client_data,
                                      Dataset test_data,
                                      const FedAvgConfig& fed_config,
                                      const ValuationRequest& request,
                                      ExecutionContext* ctx = nullptr);

/// RunValuation with crash-safe checkpointing: the run saves its
/// complete state (trainer + every evaluator, one kValuationCheckpoint
/// payload) to `checkpoint.path` every `checkpoint.every_rounds` rounds,
/// and — when `checkpoint.resume` is set and a checkpoint exists —
/// restarts from the checkpointed round instead of round 0. Both
/// drivers are the same thin loop: FedAvgTrainer::Step() feeds a
/// StreamingValuationEngine, which owns the evaluators, the round-log
/// spill and every checkpoint save/restore. A resumed run produces
/// final values bit-identical to an uninterrupted one
/// (tests/determinism_test.cc): per-round randomness derives from
/// (seed, round, client), and every sequential stream is part of the
/// checkpoint. Resuming under a different config/data/model/request is
/// an error, not a silent restart.
Result<ValuationOutcome> RunValuationCheckpointed(
    const Model& model, std::vector<Dataset> client_data, Dataset test_data,
    const FedAvgConfig& fed_config, const ValuationRequest& request,
    const CheckpointConfig& checkpoint, ExecutionContext* ctx = nullptr);

/// Re-values a trajectory from a round log (io/round_log.h) instead of
/// training: every record is served from disk — one frame resident at a
/// time — and fed through a streaming engine whose Finalize() is the
/// batch-equivalent read. On a log written with the lossless encoding
/// (kNone) the outputs are bit-identical to the RunValuation that
/// produced the trajectory, for any thread count; kQuant16 drifts by the
/// quantization step (tests/io_roundlog_test.cc bounds it). The log must
/// be complete: a spill run that degraded mid-stream leaves gaps that
/// surface here as a shorter round count.
Result<ValuationOutcome> RunValuationFromLog(
    const Model& model, const Dataset& test_data, int num_clients,
    const std::string& log_path, const ValuationRequest& request,
    const RoundLogReadOptions& read_options = {},
    ExecutionContext* ctx = nullptr);

}  // namespace comfedsv

#endif  // COMFEDSV_CORE_PIPELINE_H_
