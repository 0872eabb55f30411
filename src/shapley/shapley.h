// Classical Shapley value over an arbitrary black-box utility function:
// exact subset enumeration for small player sets and permutation-sampling
// Monte Carlo for large ones. Both are the building blocks of FedSV
// (Def. 2) and of the ground-truth evaluations in the experiments.
#ifndef COMFEDSV_SHAPLEY_SHAPLEY_H_
#define COMFEDSV_SHAPLEY_SHAPLEY_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "linalg/vector.h"
#include "shapley/coalition.h"
#include "shapley/sampler.h"

namespace comfedsv {

/// Black-box coalition utility. Implementations should memoize internally
/// if evaluations are expensive (RoundUtility does). When a ThreadPool is
/// passed to the estimators below, the utility must be safe to call from
/// several threads at once (RoundUtility is).
using UtilityFn = std::function<double(const Coalition&)>;

/// Optional batch-prefetch hook: the estimators call it with the
/// coalitions they are about to query (in chunks, in deterministic
/// submission order) before any per-coalition utility call, so a batched
/// evaluator (RoundUtility::EvaluateBatch) can compute them all with a
/// few passes over the test set and serve the per-coalition calls from
/// cache. Purely an acceleration hint: results must be identical with or
/// without it.
using UtilityPrefetchFn = std::function<void(const std::vector<Coalition>&)>;

/// Default cap on |players| for exact enumeration (the 2^m blowup guard).
inline constexpr int kDefaultMaxExactPlayers = 25;

/// Exact Shapley values of `players` (a subset of the universe) by full
/// subset enumeration: 2^|players| utility evaluations. With `pool`, the
/// subset evaluations run in parallel; each subset writes its own slot,
/// so the result is bit-identical for any thread count.
///
/// Returns a vector indexed by universe client id; non-players get 0.
/// Fails with kInvalidArgument if |players| > max_players (the 2^m blowup
/// guard).
Result<Vector> ExactShapley(int universe_size,
                            const std::vector<int>& players,
                            const UtilityFn& utility,
                            int max_players = kDefaultMaxExactPlayers,
                            ThreadPool* pool = nullptr,
                            const UtilityPrefetchFn& prefetch = nullptr);

/// Permutation-sampling Monte-Carlo Shapley estimate (Castro et al. /
/// Maleki et al., the estimator in Sec. VI-E): averages marginal
/// contributions along `num_permutations` orderings of `players` drawn
/// by `sampler` (shapley/sampler.h; uniform IID by default — unbiased,
/// O(num_permutations * |players|) utility evaluations; antithetic and
/// stratified stay unbiased at lower variance; truncated walks trade a
/// tolerance-bounded bias for skipping the tail's loss calls).
///
/// All orderings are drawn from `rng` up front on the calling thread;
/// with `pool`, their marginal-contribution walks then run in parallel
/// and per-permutation deltas are reduced in permutation order — the
/// estimate is bit-identical to the single-threaded one. Truncated walks
/// proceed position-by-position in batched waves instead (each wave is
/// one prefetch submission); `pool` then only parallelizes inside the
/// batched evaluator, and the result is thread-count invariant by
/// construction. Fails with kInvalidArgument for a sampler that
/// ValidateSamplerConfig refuses.
Result<Vector> MonteCarloShapley(int universe_size,
                                 const std::vector<int>& players,
                                 const UtilityFn& utility,
                                 int num_permutations, Rng* rng,
                                 ThreadPool* pool = nullptr,
                                 const UtilityPrefetchFn& prefetch = nullptr,
                                 const SamplerConfig& sampler = {});

/// The paper's default permutation budget O(K log K) for a K-player game
/// (Maleki et al. bound referenced in Sec. VI-E), floored at 8.
int DefaultPermutationBudget(int num_players);

}  // namespace comfedsv

#endif  // COMFEDSV_SHAPLEY_SHAPLEY_H_
