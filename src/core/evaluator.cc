#include "core/evaluator.h"

#include "common/check.h"
#include "core/comfedsv_values.h"
#include "shapley/shapley.h"

namespace comfedsv {
namespace {

// U_t(empty) = 0 is a definition (u_t(w^t) = 0), and the downstream
// formulas read the empty coalition's *factor-predicted* value as their
// baseline — so the completed factors must honor the convention. Every
// round observes (t, empty, 0), which under the default ALS solver
// already forces the empty column's factor row to exactly zero (its
// ridge normal equations have a zero right-hand side, and the LDL^T
// substitutions of a zero vector are exact), but CCD++ only drives it
// toward zero. Zeroing the row here aligns both solvers with
// MonteCarloShapley's and RoundUtility's hardcoded U(empty) = 0 — and is
// bit-identical for ALS, where the row is already +0.0.
void PinEmptyColumnFactor(int empty_col, Matrix* h) {
  COMFEDSV_CHECK_GE(empty_col, 0);
  COMFEDSV_CHECK_LT(static_cast<size_t>(empty_col), h->rows());
  double* row = h->RowPtr(empty_col);
  for (size_t k = 0; k < h->cols(); ++k) row[k] = 0.0;
}

}  // namespace

ComFedSvEvaluator::ComFedSvEvaluator(const Model* model,
                                     const Dataset* test_data,
                                     int num_clients, ComFedSvConfig config,
                                     ExecutionContext* ctx)
    : model_(model),
      test_data_(test_data),
      num_clients_(num_clients),
      config_(config),
      ctx_(ctx) {
  COMFEDSV_CHECK(model_ != nullptr);
  COMFEDSV_CHECK(test_data_ != nullptr);
  COMFEDSV_CHECK_GT(num_clients_, 0);
  if (config_.mode == ComFedSvConfig::Mode::kFull) {
    full_recorder_ = std::make_unique<ObservedUtilityRecorder>(
        model_, test_data_, num_clients_, ctx_);
  } else {
    const int budget =
        config_.num_permutations > 0
            ? config_.num_permutations
            : RoundBudgetForSampler(config_.sampler,
                                    DefaultPermutationBudget(num_clients_));
    sampled_recorder_ = std::make_unique<SampledUtilityRecorder>(
        model_, test_data_, num_clients_, budget, config_.seed,
        config_.sampler, ctx_);
  }
}

void ComFedSvEvaluator::OnRound(const RoundRecord& record) {
  RoundUtility utility(model_, test_data_, &record, ctx_);
  OnRound(record, &utility);
}

void ComFedSvEvaluator::OnRound(const RoundRecord& record,
                                RoundUtility* utility) {
  if (full_recorder_ != nullptr) {
    full_recorder_->OnRound(record, utility);
  } else {
    sampled_recorder_->OnRound(record, utility);
  }
}

Result<ComFedSvOutput> ComFedSvEvaluator::Finalize() const {
  return FinalizeImpl(nullptr, 0);
}

Result<ComFedSvOutput> ComFedSvEvaluator::FinalizeWarm(
    const FactorPair& warm, int max_iters_override) const {
  return FinalizeImpl(&warm, max_iters_override);
}

Result<ComFedSvOutput> ComFedSvEvaluator::FinalizeImpl(
    const FactorPair* warm, int max_iters_override) const {
  ComFedSvOutput out;
  CompletionConfig completion_config = config_.completion;
  if (max_iters_override > 0) {
    completion_config.max_iters = max_iters_override;
  }
  auto solve = [&](const ObservationSet& obs) {
    return warm != nullptr
               ? CompleteMatrixWarm(obs, completion_config, *warm, ctx_)
               : CompleteMatrix(obs, completion_config, ctx_);
  };

  if (full_recorder_ != nullptr) {
    if (full_recorder_->rounds_recorded() == 0) {
      return Status::FailedPrecondition("no rounds recorded");
    }
    ObservationSet obs = full_recorder_->BuildObservations();
    out.observed_density = obs.Density();
    out.num_columns = obs.num_cols();
    Result<CompletionResult> completion = solve(obs);
    if (!completion.ok()) return completion.status();
    PinEmptyColumnFactor(
        full_recorder_->interner().Find(Coalition(num_clients_)),
        &completion.value().h);
    Result<Vector> values =
        ComFedSvFromFactors(completion.value().w, completion.value().h,
                            full_recorder_->interner(), num_clients_);
    if (!values.ok()) return values.status();
    out.values = std::move(values).value();
    out.completion = std::move(completion).value();
    out.stats = full_recorder_->stats();
    return out;
  }

  if (sampled_recorder_->rounds_recorded() == 0) {
    return Status::FailedPrecondition("no rounds recorded");
  }
  ObservationSet obs = sampled_recorder_->BuildObservations();
  out.observed_density = obs.Density();
  out.num_columns = obs.num_cols();
  Result<CompletionResult> completion = solve(obs);
  if (!completion.ok()) return completion.status();
  PinEmptyColumnFactor(sampled_recorder_->prefix_columns()[0][0],
                       &completion.value().h);
  Result<Vector> values = ComFedSvSampled(
      completion.value().w, completion.value().h,
      sampled_recorder_->permutations(),
      sampled_recorder_->prefix_columns(), num_clients_);
  if (!values.ok()) return values.status();
  out.values = std::move(values).value();
  out.completion = std::move(completion).value();
  out.stats = sampled_recorder_->stats();
  return out;
}

GroundTruthEvaluator::GroundTruthEvaluator(const Model* model,
                                           const Dataset* test_data,
                                           int num_clients,
                                           ExecutionContext* ctx)
    : num_clients_(num_clients),
      recorder_(model, test_data, num_clients, ctx) {}

Result<Vector> GroundTruthEvaluator::Finalize() const {
  // Reachable when every round had an empty selected set (Bernoulli-style
  // selection): nothing was recorded, so there is nothing to evaluate.
  if (recorder_.rounds_recorded() == 0) {
    return Status::FailedPrecondition("no rounds recorded");
  }
  return ComFedSvFromFullMatrix(recorder_.ToMatrix(), num_clients_);
}

}  // namespace comfedsv
