#include "shapley/fedsv.h"

#include "common/check.h"
#include "shapley/shapley.h"
#include "shapley/utility.h"

namespace comfedsv {

FedSvEvaluator::FedSvEvaluator(const Model* model, const Dataset* test_data,
                               int num_clients, FedSvConfig config,
                               ExecutionContext* ctx)
    : model_(model),
      test_data_(test_data),
      config_(config),
      ctx_(ctx),
      values_(num_clients),
      rng_(config.seed) {
  COMFEDSV_CHECK(model_ != nullptr);
  COMFEDSV_CHECK(test_data_ != nullptr);
  COMFEDSV_CHECK_GT(num_clients, 0);
}

FedSvEvaluatorState FedSvEvaluator::SaveState() const {
  FedSvEvaluatorState state;
  state.values = values_;
  state.rng = rng_.SaveState();
  state.stats = stats_;
  return state;
}

Status FedSvEvaluator::RestoreState(const FedSvEvaluatorState& state) {
  if (state.values.size() != values_.size()) {
    return Status::InvalidArgument(
        "FedSV state has a different client count");
  }
  if (!state.stats.Valid()) {
    return Status::InvalidArgument("FedSV state counters invalid");
  }
  values_ = state.values;
  rng_ = Rng::FromState(state.rng);
  stats_ = state.stats;
  return Status::Ok();
}

void FedSvEvaluator::OnRound(const RoundRecord& record) {
  RoundUtility utility(model_, test_data_, &record, ctx_);
  OnRound(record, &utility);
}

void FedSvEvaluator::OnRound(const RoundRecord& record,
                             RoundUtility* utility) {
  COMFEDSV_CHECK(utility->record() == &record);
  // Bernoulli-style selectors can produce rounds in which no client is
  // selected; the restricted Shapley game then has no players and every
  // client's contribution is zero, so the round is skipped instead of
  // tripping the estimators' "no players" guard.
  if (record.selected.empty()) return;
  const int n = static_cast<int>(values_.size());
  const int asker = utility->AddAsker(&stats_);
  UtilityFn fn = [utility, asker](const Coalition& c) {
    return utility->Utility(c, asker);
  };
  // The estimators announce their coalition sets up front; the batched
  // engine evaluates them in a few passes over the test set and the
  // per-coalition calls below become cache hits.
  UtilityPrefetchFn prefetch = [utility,
                                asker](const std::vector<Coalition>& cs) {
    utility->EvaluateBatch(cs, asker);
  };

  ThreadPool* pool = ctx_ != nullptr ? &ctx_->pool() : nullptr;
  Result<Vector> round_values = Status::Internal("unset");
  if (config_.mode == FedSvConfig::Mode::kExact) {
    round_values = ExactShapley(n, record.selected, fn,
                                kDefaultMaxExactPlayers, pool, prefetch);
  } else {
    int budget = config_.permutations_per_round > 0
                     ? config_.permutations_per_round
                     : RoundBudgetForSampler(
                           config_.sampler,
                           DefaultPermutationBudget(
                               static_cast<int>(record.selected.size())));
    round_values = MonteCarloShapley(n, record.selected, fn, budget, &rng_,
                                     pool, prefetch, config_.sampler);
  }
  COMFEDSV_CHECK_OK(round_values.status());
  values_ += round_values.value();
}

}  // namespace comfedsv
