#include "shapley/shapley.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/combinatorics.h"

namespace comfedsv {

namespace {

// Chunk size for prefetch submissions: bounds transient Coalition
// storage while keeping BatchLoss chunks full.
constexpr size_t kPrefetchChunk = 8192;

}  // namespace

Result<Vector> ExactShapley(int universe_size,
                            const std::vector<int>& players,
                            const UtilityFn& utility, int max_players,
                            ThreadPool* pool,
                            const UtilityPrefetchFn& prefetch) {
  const int m = static_cast<int>(players.size());
  if (m == 0) return Status::InvalidArgument("no players");
  if (m > max_players) {
    return Status::InvalidArgument(
        "too many players for exact enumeration");
  }

  // Evaluate the utility of every subset of `players`, indexed by the
  // local bitmask over positions in `players`. Each subset writes its own
  // slot, so the parallel and sequential evaluations agree bit for bit.
  const uint32_t num_subsets = 1u << m;
  auto subset_coalition = [&](uint32_t mask) {
    Coalition c(universe_size);
    for (int p = 0; p < m; ++p) {
      if (mask & (1u << p)) c.Add(players[p]);
    }
    return c;
  };

  // Hand the whole subset lattice to the batched evaluator first (in
  // ascending-mask chunks): consecutive masks share ascending prefixes,
  // which is exactly the access pattern the incremental aggregator and
  // the BatchLoss engine amortize best.
  if (prefetch != nullptr) {
    std::vector<Coalition> batch;
    batch.reserve(std::min<size_t>(num_subsets - 1, kPrefetchChunk));
    for (uint32_t mask = 1; mask < num_subsets; ++mask) {
      batch.push_back(subset_coalition(mask));
      if (batch.size() == kPrefetchChunk) {
        prefetch(batch);
        batch.clear();
      }
    }
    if (!batch.empty()) prefetch(batch);
  }

  std::vector<double> subset_utility(num_subsets);
  auto eval_subset = [&](int mask_index) {
    const uint32_t mask = static_cast<uint32_t>(mask_index);
    subset_utility[mask] = utility(subset_coalition(mask));
  };
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<int>(num_subsets), eval_subset);
  } else {
    for (uint32_t mask = 0; mask < num_subsets; ++mask) {
      eval_subset(static_cast<int>(mask));
    }
  }

  // phi_i = (1/m) sum_{S not containing i} [1 / C(m-1, |S|)]
  //         * [U(S + i) - U(S)].
  // The weight depends only on |S|: hoist the divisions out of the
  // 2^m * m mask loop (as comfedsv_values.cc::ExactSumOverCoalitions
  // does). Same operations per term, so the output is bit-identical.
  std::vector<double> size_weight(m);
  for (int s = 0; s < m; ++s) size_weight[s] = 1.0 / Binomial(m - 1, s);
  Vector values(universe_size);
  for (int p = 0; p < m; ++p) {
    const uint32_t bit = 1u << p;
    double acc = 0.0;
    for (uint32_t mask = 0; mask < num_subsets; ++mask) {
      if (mask & bit) continue;
      const int s = std::popcount(mask);
      acc += size_weight[s] *
             (subset_utility[mask | bit] - subset_utility[mask]);
    }
    values[players[p]] = acc / static_cast<double>(m);
  }
  return values;
}

namespace {

// TMC-style truncated walks (SamplerKind::kTruncated). The scan proceeds
// position-by-position in lockstep across all permutations: each wave
// collects the next prefix of every still-active walk, submits the whole
// wave to the batched evaluator, then reads the utilities back in
// permutation order and applies the truncation rule. Tail prefixes of
// truncated walks are never evaluated — that is the loss-call saving —
// and every decision depends only on utilities, so the result is
// identical for any thread count.
Vector TruncatedWalkEstimate(int universe_size,
                             const std::vector<int>& players,
                             const UtilityFn& utility,
                             const std::vector<std::vector<int>>& orders,
                             double tolerance,
                             const UtilityPrefetchFn& prefetch) {
  const int m = static_cast<int>(players.size());
  const int num_permutations = static_cast<int>(orders.size());

  // The truncation reference U(grand): every permutation's final prefix,
  // so in the untruncated estimator it is evaluated anyway.
  Coalition grand = Coalition::FromMembers(universe_size, players);
  if (prefetch != nullptr) prefetch({grand});
  const double grand_utility = utility(grand);

  struct WalkState {
    Coalition prefix;
    double prev_utility = 0.0;  // U(empty) = 0 by convention
    bool active = true;
  };
  std::vector<WalkState> walks(num_permutations);
  for (WalkState& w : walks) w.prefix = Coalition(universe_size);

  std::vector<Vector> deltas(num_permutations,
                             Vector(universe_size));  // zero-initialized
  std::vector<Coalition> wave;
  for (int pos = 0; pos < m; ++pos) {
    wave.clear();
    for (int sample = 0; sample < num_permutations; ++sample) {
      if (!walks[sample].active) continue;
      walks[sample].prefix.Add(orders[sample][pos]);
      wave.push_back(walks[sample].prefix);
    }
    if (wave.empty()) break;
    if (prefetch != nullptr) prefetch(wave);
    for (int sample = 0; sample < num_permutations; ++sample) {
      WalkState& w = walks[sample];
      if (!w.active) continue;
      const double cur_utility = utility(w.prefix);
      deltas[sample][orders[sample][pos]] = cur_utility - w.prev_utility;
      w.prev_utility = cur_utility;
      // Within tolerance of the grand coalition: the remaining tail's
      // marginals stay 0 (their deltas were zero-initialized) and its
      // prefixes are never submitted.
      if (std::abs(grand_utility - cur_utility) <= tolerance) {
        w.active = false;
      }
    }
  }

  Vector values(universe_size);
  for (int sample = 0; sample < num_permutations; ++sample) {
    values += deltas[sample];
  }
  values.Scale(1.0 / static_cast<double>(num_permutations));
  return values;
}

}  // namespace

Result<Vector> MonteCarloShapley(int universe_size,
                                 const std::vector<int>& players,
                                 const UtilityFn& utility,
                                 int num_permutations, Rng* rng,
                                 ThreadPool* pool,
                                 const UtilityPrefetchFn& prefetch,
                                 const SamplerConfig& sampler) {
  if (players.empty()) return Status::InvalidArgument("no players");
  if (num_permutations <= 0) {
    return Status::InvalidArgument("num_permutations must be positive");
  }
  COMFEDSV_RETURN_IF_ERROR(ValidateSamplerConfig(sampler));
  COMFEDSV_CHECK(rng != nullptr);

  const int m = static_cast<int>(players.size());

  // Draw every ordering sequentially first: the sampled orderings (and
  // so the estimate) depend only on `rng`, never on thread scheduling.
  // The chained draw convention (reset_between_draws = false) reproduces
  // the pre-sampler uniform sequence bit for bit.
  std::vector<std::vector<int>> orders = DrawOrderings(
      sampler, players, num_permutations, rng,
      /*reset_between_draws=*/false);

  if (sampler.kind == SamplerKind::kTruncated) {
    return TruncatedWalkEstimate(universe_size, players, utility, orders,
                                 sampler.truncation_tolerance, prefetch);
  }

  // Submit every permutation prefix to the batched evaluator up front
  // (deduping happens there); the marginal-contribution walks below then
  // read utilities from its cache.
  if (prefetch != nullptr) {
    std::vector<Coalition> batch;
    batch.reserve(std::min(static_cast<size_t>(num_permutations) * m,
                           kPrefetchChunk));
    for (const std::vector<int>& ord : orders) {
      Coalition prefix(universe_size);
      for (int member : ord) {
        prefix.Add(member);
        batch.push_back(prefix);
        if (batch.size() == kPrefetchChunk) {
          prefetch(batch);
          batch.clear();
        }
      }
    }
    if (!batch.empty()) prefetch(batch);
  }

  // Each permutation's marginal-contribution walk fills its own delta
  // vector (one entry per player); the deltas are then reduced in
  // permutation order, which reproduces the single-threaded accumulation
  // order exactly.
  std::vector<Vector> deltas(num_permutations);
  auto walk = [&](int sample) {
    const std::vector<int>& ord = orders[sample];
    Vector delta(universe_size);
    Coalition prefix(universe_size);
    double prev_utility = 0.0;  // U(empty) = 0 by convention
    for (int pos = 0; pos < m; ++pos) {
      prefix.Add(ord[pos]);
      const double cur_utility = utility(prefix);
      delta[ord[pos]] = cur_utility - prev_utility;
      prev_utility = cur_utility;
    }
    deltas[sample] = std::move(delta);
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_permutations, walk);
  } else {
    for (int sample = 0; sample < num_permutations; ++sample) walk(sample);
  }

  Vector values(universe_size);
  for (int sample = 0; sample < num_permutations; ++sample) {
    values += deltas[sample];
  }
  values.Scale(1.0 / static_cast<double>(num_permutations));
  return values;
}

int DefaultPermutationBudget(int num_players) {
  COMFEDSV_CHECK_GT(num_players, 0);
  const double suggested =
      std::ceil(static_cast<double>(num_players) *
                std::log(static_cast<double>(num_players) + 1.0));
  return std::max(8, static_cast<int>(suggested));
}

}  // namespace comfedsv
