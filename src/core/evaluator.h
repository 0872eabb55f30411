// High-level valuation evaluators. Each plugs into FedAvgTrainer::Train
// as a RoundObserver and is finalized after training:
//
//   * ComFedSvEvaluator   — the paper's contribution. Records observable
//     utilities (full Def. 4 columns or Algorithm 1 sampled prefixes),
//     completes the utility matrix, and evaluates the ComFedSV formula.
//   * GroundTruthEvaluator — ComFedSV computed from the *fully observed*
//     utility matrix (Eq. 14), the reference the paper compares against.
//
// FedSvEvaluator (the baseline) lives in shapley/fedsv.h.
#ifndef COMFEDSV_CORE_EVALUATOR_H_
#define COMFEDSV_CORE_EVALUATOR_H_

#include <memory>
#include <optional>

#include "common/execution_context.h"
#include "completion/solver.h"
#include "core/recorders.h"
#include "fl/round_record.h"
#include "shapley/sampler.h"

namespace comfedsv {

/// Configuration of the ComFedSV pipeline.
struct ComFedSvConfig {
  enum class Mode {
    /// Exact Def. 4: columns for all 2^N coalitions. Needs N <= 16 and
    /// Assumption 1. The setting of the paper's 10-client experiments.
    kFull,
    /// Algorithm 1: Monte-Carlo permutation sampling; scales to 100+
    /// clients (Figs. 7, 8).
    kSampled,
  };
  Mode mode = Mode::kFull;
  CompletionConfig completion;
  /// Permutation count M for kSampled; 0 = DefaultPermutationBudget(N),
  /// the O(N log N) budget from Sec. VI-E.
  int num_permutations = 0;
  /// kSampled only: how Algorithm 1's permutations are drawn (uniform
  /// IID, antithetic pairs, position-stratified, or truncated per-round
  /// prefix recording — see shapley/sampler.h).
  SamplerConfig sampler;
  uint64_t seed = 0;
};

/// Output of a finalized ComFedSV evaluation.
struct ComFedSvOutput {
  Vector values;                ///< per-client ComFedSV
  CompletionResult completion;  ///< the fitted factors and diagnostics
  double observed_density = 0.0;  ///< fraction of matrix entries observed
  int num_columns = 0;            ///< columns in the completion problem
  /// Measured evaluation accounting from the active recorder: loss
  /// calls (the Fig. 8 cost unit), batch passes and memo hits.
  /// Checkpointed with the recorder.
  UtilityStats stats;
};

/// Observer-plus-finalizer implementing ComFedSV end to end.
class ComFedSvEvaluator : public RoundObserver {
 public:
  /// `ctx` (optional; must outlive the evaluator) parallelizes both
  /// phases — per-round utility recording and the ALS completion solve —
  /// with outputs identical for any thread count.
  ComFedSvEvaluator(const Model* model, const Dataset* test_data,
                    int num_clients, ComFedSvConfig config,
                    ExecutionContext* ctx = nullptr);

  /// Records the round through a private memo.
  void OnRound(const RoundRecord& record) override;
  /// The same recording and stats, through `utility`: a memo of `record`
  /// that other evaluators may share.
  void OnRound(const RoundRecord& record, RoundUtility* utility);

  /// Completes the utility matrix and evaluates ComFedSV. May be called
  /// after any number of recorded rounds (the streaming engine calls it
  /// per snapshot); the classic pipeline calls it once, after training.
  Result<ComFedSvOutput> Finalize() const;

  /// As Finalize(), but warm-starting the completion solve from `warm`
  /// (CompleteMatrixWarm: factors of a previous snapshot's solve over a
  /// prefix of the current rounds/columns) and, when `max_iters_override`
  /// is positive, capping the solver sweeps at it. The streaming
  /// engine's cheap-refresh path.
  Result<ComFedSvOutput> FinalizeWarm(const FactorPair& warm,
                                      int max_iters_override) const;

  int num_clients() const { return num_clients_; }

  /// The active recorder, per config mode (the other getter returns
  /// null). Exposed for checkpoint save/restore and for the streaming
  /// engine's incremental observation access.
  ObservedUtilityRecorder* full_recorder() { return full_recorder_.get(); }
  const ObservedUtilityRecorder* full_recorder() const {
    return full_recorder_.get();
  }
  SampledUtilityRecorder* sampled_recorder() {
    return sampled_recorder_.get();
  }
  const SampledUtilityRecorder* sampled_recorder() const {
    return sampled_recorder_.get();
  }

 private:
  Result<ComFedSvOutput> FinalizeImpl(const FactorPair* warm,
                                      int max_iters_override) const;

  const Model* model_;
  const Dataset* test_data_;
  int num_clients_;
  ComFedSvConfig config_;
  ExecutionContext* ctx_;  // not owned; null = inline execution
  // Exactly one of these is active, per config_.mode.
  std::unique_ptr<ObservedUtilityRecorder> full_recorder_;
  std::unique_ptr<SampledUtilityRecorder> sampled_recorder_;
};

/// Ground-truth ComFedSV (Eq. 14) via exhaustive utility recording.
class GroundTruthEvaluator : public RoundObserver {
 public:
  /// `ctx` (optional) parallelizes the exhaustive per-round utility
  /// recording.
  GroundTruthEvaluator(const Model* model, const Dataset* test_data,
                       int num_clients, ExecutionContext* ctx = nullptr);

  void OnRound(const RoundRecord& record) override {
    recorder_.OnRound(record);
  }
  /// As OnRound(record), through a memo other evaluators may share.
  void OnRound(const RoundRecord& record, RoundUtility* utility) {
    recorder_.OnRound(record, utility);
  }

  /// Per-client ground-truth values. Call after training.
  Result<Vector> Finalize() const;

  /// The full T x 2^N utility matrix (Figs. 2 and 3 analyse it directly).
  Matrix UtilityMatrix() const { return recorder_.ToMatrix(); }

  /// Measured evaluation accounting of the exhaustive recording.
  const UtilityStats& stats() const { return recorder_.stats(); }

  /// The underlying recorder, exposed for checkpoint save/restore.
  FullUtilityRecorder* recorder() { return &recorder_; }
  const FullUtilityRecorder* recorder() const { return &recorder_; }

 private:
  int num_clients_;
  FullUtilityRecorder recorder_;
};

}  // namespace comfedsv

#endif  // COMFEDSV_CORE_EVALUATOR_H_
