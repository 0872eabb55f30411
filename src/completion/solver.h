// Factorization-based low-rank matrix completion (problem (9)/(13) of the
// paper):
//
//   minimize_{W, H}  sum_observed (U_{t,S} - w_t^T h_S)^2
//                    + lambda (||W||_F^2 + ||H||_F^2)
//
// Two solvers are provided, both sweeping the compressed-sparse (CSR /
// CSC) views that ObservationSet::Finalize() builds:
//   * kAls:  alternating least squares — each factor row has a closed-form
//            ridge solution; robust default. Row solves accumulate their
//            rank x rank normal equations with the register-tiled
//            gather/Gram kernels (linalg/gram_kernels.h) and run in
//            parallel blocks; under temporal smoothing the W-side uses a
//            red-black (even/odd) ordering so both colors parallelize.
//   * kCcd:  CCD++-style coordinate descent with residual maintenance —
//            the algorithm inside LIBPMF, the solver the paper used. The
//            residual is kept in CSR order; row and column refit phases
//            each parallelize with a barrier in between.
// The ablation bench (bench/ablation_completion_solver) compares their
// fits; bench/completion_solvers records their throughput.
#ifndef COMFEDSV_COMPLETION_SOLVER_H_
#define COMFEDSV_COMPLETION_SOLVER_H_

#include <cstdint>
#include <string>

#include "common/execution_context.h"
#include "common/status.h"
#include "completion/observations.h"
#include "linalg/matrix.h"

namespace comfedsv {

/// Which optimizer solves the completion problem. The values are hashed
/// into request fingerprints (core/checkpointing.cc), so they never change.
enum class CompletionSolver { kAls = 0, kCcd = 1 };

/// Human-readable solver name.
std::string CompletionSolverName(CompletionSolver solver);

/// Hyper-parameters of the completion problem and its solver.
struct CompletionConfig {
  /// Rank parameter r of the factorization. Propositions 1/2 bound the
  /// eps-rank of the utility matrix by O(log T / eps); Example 3 probes
  /// the sensitivity empirically.
  int rank = 5;
  /// Regularization weight lambda.
  double lambda = 1e-3;
  /// Maximum alternating sweeps.
  int max_iters = 100;
  /// Stop when the relative decrease of the objective falls below this.
  double tolerance = 1e-8;
  CompletionSolver solver = CompletionSolver::kAls;
  /// Standard deviation of the random factor initialization; 0 = auto
  /// (a small fraction of the data scale, which empirically steers ALS
  /// to good basins — see the init-scale ablation bench).
  double init_scale = 0.0;
  /// Temporal-smoothness weight mu: adds mu * sum_t ||w_t - w_{t+1}||^2
  /// to the objective, exploiting the paper's Proposition 1 (utilities of
  /// the same coalition change slowly across successive rounds). Rows of
  /// W index training rounds, so coupling adjacent rows stabilizes the
  /// row factors of sparsely observed rounds. 0 disables (the literal
  /// problem (9)); ALS only, so kCcd requires 0.
  double temporal_smoothing = 0.0;
  uint64_t seed = 0;
  /// ALS / CCD++ compute the stopping objective from state the sweep
  /// already maintains (per-column residuals / the CCD++ residual array)
  /// instead of a second full pass over the observations. Setting this
  /// cross-checks the fused value against a direct recomputation every
  /// iteration (CHECK-fails on mismatch beyond accumulated-rounding
  /// tolerance). Always on in debug (!NDEBUG) builds.
  bool verify_fused_objective = false;
};

/// Checks every field that has an invalid range, in one place: rank >= 1;
/// lambda finite and > 0 (the ridge row solves need it); max_iters >= 1;
/// init_scale finite and >= 0; and temporal_smoothing finite, >= 0 and 0
/// unless the solver is kAls.
/// Returns InvalidArgument whose message starts with the offending field
/// name. `tolerance` is not checked: -inf (never stop early) is a valid
/// setting.
Status ValidateCompletionConfig(const CompletionConfig& config);

/// A completion factorization (W, H): the warm-start unit the streaming
/// valuation engine carries between re-solves and the checkpoint layer
/// (io/checkpoint.h) persists. Row counts may differ (rounds vs
/// columns); the rank (cols) must match.
struct FactorPair {
  Matrix w;
  Matrix h;
};

/// Result of a completion solve.
struct CompletionResult {
  Matrix w;  ///< num_rows x rank
  Matrix h;  ///< num_cols x rank
  int iterations = 0;
  /// Root-mean-square error over the observed entries at termination.
  double observed_rmse = 0.0;
  /// Final value of the regularized objective.
  double objective = 0.0;

  /// Predicted value of entry (row, col): w_row . h_col.
  double Predict(int row, int col) const;
};

/// Solves the completion problem over `observations`, which must be
/// finalized (ObservationSet::Finalize()) so the CSR/CSC views exist.
/// `ctx` (optional) parallelizes every solver; outputs are bit-identical
/// for any thread count:
///   * ALS row solves write disjoint factor rows; under temporal
///     smoothing (mu > 0) the W-side sweeps even rows then odd rows
///     (red-black), each color reading only the other color's rows.
///   * CCD++ runs its residual updates and per-row / per-column rank-1
///     refits in parallel phases separated by barriers.
Result<CompletionResult> CompleteMatrix(const ObservationSet& observations,
                                        const CompletionConfig& config,
                                        ExecutionContext* ctx = nullptr);

/// Warm-started solve: the leading rows of the factor initialization are
/// copied from `warm.w` / `warm.h` (a fit of a *prefix* of the current
/// problem — fewer or equal rows/columns; the remainder keeps the usual
/// seeded random init), and ALS skips its staged rank-growth pre-phase
/// because the warm factors already select a basin. With factors carried
/// over from the previous streaming re-solve this reaches the same final
/// objective in fewer sweeps than a cold CompleteMatrix (perfbench's
/// `completion.warm_sweeps` tracks the warm count). `warm` ranks must
/// equal config.rank.
Result<CompletionResult> CompleteMatrixWarm(
    const ObservationSet& observations, const CompletionConfig& config,
    const FactorPair& warm, ExecutionContext* ctx = nullptr);

}  // namespace comfedsv

#endif  // COMFEDSV_COMPLETION_SOLVER_H_
