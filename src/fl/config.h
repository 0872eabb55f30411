// Configuration types for the federated-averaging simulator.
#ifndef COMFEDSV_FL_CONFIG_H_
#define COMFEDSV_FL_CONFIG_H_

#include <cstdint>

#include "common/check.h"
#include "fl/adversary.h"

namespace comfedsv {

/// Server-side aggregation hardening (see README "Adversarial
/// robustness & detection" for the full contract). The guard runs after
/// local updates, adversarial transforms, and client selection, in one
/// deterministic sequential pass over the selected set:
///
///   1. A selected update containing any NaN/Inf is *rejected*: it is
///      excluded from the aggregate, the client's recorded local model
///      is sanitized to the round's broadcast global (a zero-information
///      update, so every downstream valuation stays finite and scores
///      the client near zero), and the client's quarantine counter is
///      incremented. The client stays in RoundRecord::selected (so
///      Assumption 1 and the completion layer are unaffected) but is
///      listed in RoundRecord::rejected.
///   2. A finite update whose delta-vs-global L2 norm exceeds
///      `clip_norm` (when > 0) is scaled back onto the clip sphere; the
///      clipped update is what both the aggregate and the valuation
///      observers see.
///   3. A client whose quarantine counter has reached
///      `quarantine_after` (when > 0) is preemptively dropped from the
///      selected set of every later round (RoundRecord::dropped).
///
/// If every selected update is rejected the round degrades to the
/// empty-selection path: the global model carries over unchanged. All
/// guard state (per-client counters) is part of FedAvgTrainerState, so
/// degraded runs checkpoint/resume bit-identically.
struct AggregationGuardConfig {
  /// Reject non-finite updates (rule 1). Defaults on: a single NaN
  /// update would otherwise silently poison the aggregate and every
  /// valuation downstream.
  bool reject_nonfinite = true;
  /// Maximum L2 norm of a client's update delta vs the broadcast global
  /// (rule 2); 0 disables clipping.
  double clip_norm = 0.0;
  /// Rejections before a client is quarantined (rule 3); 0 disables
  /// auto-quarantine (rejected updates are still excluded per round).
  int quarantine_after = 0;
};

/// Learning-rate schedule for local stochastic gradient steps.
struct LearningRateSchedule {
  enum class Kind {
    kConstant,       ///< eta_t = base
    kInverseDecay,   ///< eta_t = 2 / (mu * (gamma + t)) — the Prop. 2 rate
  };

  Kind kind = Kind::kConstant;
  double base = 0.1;   ///< used by kConstant
  double mu = 1.0;     ///< strong-convexity constant, used by kInverseDecay
  double gamma = 1.0;  ///< offset, used by kInverseDecay

  /// Learning rate for round t (0-based).
  double At(int t) const {
    COMFEDSV_CHECK_GE(t, 0);
    switch (kind) {
      case Kind::kConstant:
        return base;
      case Kind::kInverseDecay:
        return 2.0 / (mu * (gamma + static_cast<double>(t) + 1.0));
    }
    return base;
  }

  static LearningRateSchedule Constant(double base) {
    LearningRateSchedule s;
    s.kind = Kind::kConstant;
    s.base = base;
    return s;
  }

  /// The schedule from Proposition 2: eta_t = 2 / (mu (gamma + t)) with
  /// gamma = max(8 L2 / mu, 1). (The paper's print shows 8 mu / L2; the
  /// convergence theorem it cites, Li et al. 2019, uses gamma = 8 L / mu.)
  static LearningRateSchedule InverseDecay(double mu, double smoothness) {
    LearningRateSchedule s;
    s.kind = Kind::kInverseDecay;
    s.mu = mu;
    s.gamma = (8.0 * smoothness / mu > 1.0) ? 8.0 * smoothness / mu : 1.0;
    return s;
  }
};

/// Which default client-selection strategy the trainer builds when no
/// custom ClientSelector is passed to Train/Begin.
enum class SelectorKind {
  kUniform,    ///< `clients_per_round` clients uniformly without replacement
  kBernoulli,  ///< each client independently with `participation_prob`
};

/// Configuration of a FedAvg run.
struct FedAvgConfig {
  int num_rounds = 10;
  /// Default selector built by the trainer (both kinds are wrapped in
  /// EveryoneHeardSelector when `select_all_first_round` is set).
  SelectorKind selector = SelectorKind::kUniform;
  /// K: clients selected (aggregated) per round. kUniform only.
  int clients_per_round = 3;
  /// Per-round participation probability, in [0, 1]. kBernoulli only;
  /// rounds may select no one (the trainer then skips aggregation).
  double participation_prob = 0.5;
  /// Local gradient steps per client per round (paper's theory uses 1).
  int local_steps = 1;
  /// Mini-batch size for local steps; 0 = full local batch (deterministic
  /// given the seed; the paper's theory assumes deterministic updates).
  int batch_size = 0;
  LearningRateSchedule lr = LearningRateSchedule::Constant(0.1);
  /// Assumption 1 ("Everyone Being Heard"): select every client in the
  /// first round. Required by the ComFedSV completion path.
  bool select_all_first_round = true;
  /// Adversarial-client population (fl/adversary.h); empty = all honest.
  /// Lives in the config so the pipeline, streaming, and checkpoint
  /// layers plumb attack scenarios through without new surface — the
  /// trainer compiles it into an AdversaryModel at construction and
  /// mixes it into ConfigFingerprint().
  AdversaryConfig adversary;
  /// Server-side aggregation hardening against malformed updates.
  AggregationGuardConfig guard;
  /// Parallelism is no longer configured here: pass an ExecutionContext
  /// (common/execution_context.h) to FedAvgTrainer / RunValuation instead.
  uint64_t seed = 0;
};

}  // namespace comfedsv

#endif  // COMFEDSV_FL_CONFIG_H_
