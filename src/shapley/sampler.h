// Permutation-sampling strategies for the Monte-Carlo Shapley estimators
// (the Sec. VI-E / Sec. VII-D machinery). Every estimator in the library
// walks marginal contributions along sampled orderings; since PR 2/3 made
// each utility evaluation cheap, the estimator variance *per loss call*
// is the dominant accuracy knob. This module makes the sampling strategy
// pluggable:
//
//   * kUniformIid  — independent uniform permutations (the classical
//                    Castro et al. estimator; the default and the
//                    pre-existing behavior, bit for bit).
//   * kAntithetic  — forward/reverse pairs: each drawn permutation is
//                    followed by its reversal. Positions p and m-1-p are
//                    exchanged within a pair, so the positional component
//                    of the marginal-contribution variance (dominant for
//                    games with curvature in |S|) cancels. Unbiased.
//   * kStratified  — stratified by position: each drawn permutation is
//                    expanded into its m cyclic rotations, so within one
//                    block every player occupies every position exactly
//                    once (a cyclic Latin square). Each rotation of a
//                    uniform permutation is marginally uniform, so the
//                    estimator stays unbiased while the per-player
//                    position histogram is exactly flat per block.
//   * kTruncated   — TMC-style truncated walks (Ghorbani & Zou; Wang et
//                    al.'s federated variant): orderings are uniform IID,
//                    but a permutation's marginal-contribution scan stops
//                    once the running utility is within
//                    `truncation_tolerance` of the grand-coalition
//                    utility; the tail's players get zero marginal and —
//                    crucially — the tail's loss calls are never spent.
//                    Introduces bias bounded by the tolerance per
//                    truncated permutation.
//
// All orderings are drawn up front on the calling thread from the
// caller's Rng, so which coalitions get evaluated depends only on the
// seed — never on thread scheduling (the bit-identical-across-thread-
// counts invariant of tests/determinism_test.cc).
#ifndef COMFEDSV_SHAPLEY_SAMPLER_H_
#define COMFEDSV_SHAPLEY_SAMPLER_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace comfedsv {

/// Which permutation-sampling strategy an estimator uses.
enum class SamplerKind {
  kUniformIid,
  kAntithetic,
  kStratified,
  kTruncated,
};

/// Sampling-strategy configuration, embedded in FedSvConfig and
/// ComFedSvConfig.
struct SamplerConfig {
  SamplerKind kind = SamplerKind::kUniformIid;
  /// kTruncated only: a permutation's scan stops once
  /// |U(grand) - U(prefix)| <= truncation_tolerance. 0 truncates only on
  /// exact saturation (a plateau), which is already enough for games
  /// whose utility caps out early.
  double truncation_tolerance = 1e-3;
};

/// Human-readable sampler name (bench/JSON labels).
const char* SamplerKindName(SamplerKind kind);

/// Rounds a *default-resolved* permutation budget up to the sampler's
/// natural pairing size: antithetic draws come in forward/reverse pairs,
/// so an odd budget would leave one draw unpaired and forfeit part of
/// the cancellation. Explicit user budgets are honored as given (an
/// unpaired draw is still unbiased, just higher-variance). Non-positive
/// budgets are floored at one draw (two for antithetic) so degenerate
/// configurations never reach the estimators' positive-budget guard.
int RoundBudgetForSampler(const SamplerConfig& config, int budget);

/// Checks every field that has an invalid range: with kind kTruncated,
/// truncation_tolerance must be finite and >= 0 (a NaN tolerance never
/// stops a walk, +inf stops every walk after one player). Returns
/// InvalidArgument whose message starts with the offending field name.
Status ValidateSamplerConfig(const SamplerConfig& config);

/// Draws `count` orderings of `players` from `rng` according to
/// `config.kind`. Antithetic reversals and stratified rotations are
/// derived from each drawn base permutation without consuming extra
/// randomness; kTruncated draws plain uniform orderings (truncation is a
/// walk-time behavior, applied by the estimator).
///
/// `reset_between_draws` selects between the two legacy uniform-draw
/// conventions the library already shipped — both must keep reproducing
/// their historical sequences bit for bit:
///   * false (MonteCarloShapley): one working vector initialized from
///     `players` is re-shuffled in place for every base draw;
///   * true (SampledUtilityRecorder): the working vector is reset to
///     `players` before each base draw, matching Rng::Permutation.
/// Every base draw consumes exactly one Rng::Shuffle either way.
std::vector<std::vector<int>> DrawOrderings(const SamplerConfig& config,
                                            const std::vector<int>& players,
                                            int count, Rng* rng,
                                            bool reset_between_draws = false);

}  // namespace comfedsv

#endif  // COMFEDSV_SHAPLEY_SAMPLER_H_
