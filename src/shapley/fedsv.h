// Federated Shapley value (Wang et al. 2020; Definition 2 of the paper):
// in each round, the Shapley value of the round's utility game restricted
// to the selected clients I_t; unselected clients get zero. The final
// FedSV is the sum over rounds.
//
// This is the baseline the paper improves on — Observation 1 / Example 1
// show it violates symmetry under partial participation.
#ifndef COMFEDSV_SHAPLEY_FEDSV_H_
#define COMFEDSV_SHAPLEY_FEDSV_H_

#include <cstdint>

#include "common/execution_context.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "fl/round_record.h"
#include "linalg/vector.h"
#include "models/model.h"
#include "shapley/sampler.h"
#include "shapley/utility.h"

namespace comfedsv {

/// How each round's restricted Shapley values are computed.
struct FedSvConfig {
  enum class Mode {
    kExact,       ///< 2^|I_t| subset enumeration (small I_t)
    kMonteCarlo,  ///< permutation sampling (the paper's large-K setting)
  };
  Mode mode = Mode::kExact;
  /// Permutations per round for kMonteCarlo; 0 = DefaultPermutationBudget
  /// (O(K log K), the budget in the paper's Sec. VII-D analysis).
  int permutations_per_round = 0;
  /// kMonteCarlo only: how the per-round orderings are sampled (uniform
  /// IID, antithetic pairs, position-stratified, or truncated walks —
  /// see shapley/sampler.h for the accuracy-per-loss-call trade-offs).
  SamplerConfig sampler;
  uint64_t seed = 0;
};

/// Checkpointable mid-run FedSV accumulation: the running per-client
/// sums, the Monte-Carlo permutation stream, and the cost counters.
/// Serialized by the core checkpoint layer; restored via
/// FedSvEvaluator::RestoreState.
struct FedSvEvaluatorState {
  Vector values;
  RngState rng;
  UtilityStats stats;
};

/// Accumulates FedSV over a training run. Plug into FedAvgTrainer::Train
/// as the RoundObserver, then read values().
class FedSvEvaluator : public RoundObserver {
 public:
  /// `ctx` (optional; must outlive the evaluator) parallelizes each
  /// round's Shapley computation — permutation walks in kMonteCarlo mode,
  /// subset enumeration in kExact mode — with values bit-identical to the
  /// single-threaded evaluation for any thread count.
  FedSvEvaluator(const Model* model, const Dataset* test_data,
                 int num_clients, FedSvConfig config,
                 ExecutionContext* ctx = nullptr);

  /// Accumulates the round's FedSV through a private memo.
  void OnRound(const RoundRecord& record) override;

  /// Accumulates the round's FedSV through `utility`, a memo of
  /// `record` that other evaluators may share: values and stats() are
  /// the same as OnRound(record)'s. `utility` must have been built over
  /// this evaluator's model and test set.
  void OnRound(const RoundRecord& record, RoundUtility* utility);

  /// Per-client FedSV s_i accumulated so far (length num_clients).
  const Vector& values() const { return values_; }

  /// Measured evaluation accounting accumulated across rounds (loss
  /// calls — the Fig. 8 cost unit — batched passes, memo hits).
  /// Checkpointed, so a resumed run reports the uninterrupted run's
  /// counts.
  const UtilityStats& stats() const { return stats_; }

  /// Snapshot of the accumulation after any number of rounds.
  FedSvEvaluatorState SaveState() const;

  /// Resumes a snapshot taken from an evaluator with the same
  /// num_clients/config; OnRound then continues bit-identically to the
  /// run that saved it.
  Status RestoreState(const FedSvEvaluatorState& state);

 private:
  const Model* model_;
  const Dataset* test_data_;
  FedSvConfig config_;
  ExecutionContext* ctx_;  // not owned; null = inline execution
  Vector values_;
  Rng rng_;
  UtilityStats stats_;
};

}  // namespace comfedsv

#endif  // COMFEDSV_SHAPLEY_FEDSV_H_
