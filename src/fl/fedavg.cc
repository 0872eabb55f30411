#include "fl/fedavg.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>

#include "common/check.h"
#include "common/fingerprint.h"

namespace comfedsv {
namespace {

bool AllFinite(const Vector& v) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}

// Full-content dataset hash: a checkpoint must refuse to resume when
// the data changed, not just when its shape did — the recorded rounds
// would belong to a different trajectory.
void MixDataset(uint64_t* hash, const Dataset& d) {
  FingerprintMix(hash, static_cast<uint64_t>(d.num_samples()));
  FingerprintMix(hash, static_cast<uint64_t>(d.dim()));
  FingerprintMix(hash, static_cast<uint64_t>(d.num_classes()));
  const double* features = d.features().data();
  const size_t entries = d.num_samples() * d.dim();
  for (size_t i = 0; i < entries; ++i) FingerprintMix(hash, features[i]);
  for (int label : d.labels()) {
    FingerprintMix(hash, static_cast<uint64_t>(label));
  }
}

}  // namespace

FedAvgTrainer::FedAvgTrainer(const Model* model,
                             std::vector<Dataset> client_data,
                             Dataset test_data, FedAvgConfig config,
                             ExecutionContext* ctx)
    : model_(model),
      client_data_(std::move(client_data)),
      test_data_(std::move(test_data)),
      config_(config),
      ctx_(ctx) {
  COMFEDSV_CHECK(model_ != nullptr);
  COMFEDSV_CHECK(!client_data_.empty());
  for (const Dataset& d : client_data_) {
    COMFEDSV_CHECK_EQ(d.dim(), model_->input_dim());
    COMFEDSV_CHECK(!d.empty());
  }
  COMFEDSV_CHECK_EQ(test_data_.dim(), model_->input_dim());

  // Compile the adversarial population (if any) and apply its
  // data-poisoning behaviors exactly once, before the data fingerprint
  // is computed and before any training touches the datasets. Invalid
  // specs surface as a Status from Begin()/Train(), not a crash here.
  adversary_status_ = AdversaryModel::Validate(config_.adversary,
                                               num_clients());
  if (adversary_status_.ok() && config_.adversary.any()) {
    adversary_ = std::make_unique<AdversaryModel>(config_.adversary,
                                                  num_clients());
    adversary_->PoisonData(&client_data_);
  }
}

Vector FedAvgTrainer::LocalUpdate(int client, const Vector& start, double lr,
                                  Rng* client_rng) const {
  const Dataset& data = client_data_[client];
  Vector params = start;
  Vector grad;
  for (int step = 0; step < config_.local_steps; ++step) {
    if (config_.batch_size > 0 &&
        static_cast<size_t>(config_.batch_size) < data.num_samples()) {
      const std::vector<int> picks = client_rng->SampleWithoutReplacement(
          static_cast<int>(data.num_samples()), config_.batch_size);
      std::vector<size_t> idx(picks.begin(), picks.end());
      Dataset batch = data.Subset(idx);
      model_->LossAndGradient(params, batch, &grad);
    } else {
      model_->LossAndGradient(params, data, &grad);
    }
    params.Axpy(-lr, grad);
  }
  return params;
}

uint64_t FedAvgTrainer::ConfigFingerprint() const {
  uint64_t hash = kFingerprintSeed;
  FingerprintMix(&hash, static_cast<uint64_t>(config_.num_rounds));
  FingerprintMix(&hash, static_cast<uint64_t>(config_.selector));
  FingerprintMix(&hash, static_cast<uint64_t>(config_.clients_per_round));
  FingerprintMix(&hash, config_.participation_prob);
  FingerprintMix(&hash, static_cast<uint64_t>(config_.local_steps));
  FingerprintMix(&hash, static_cast<uint64_t>(config_.batch_size));
  FingerprintMix(&hash, static_cast<uint64_t>(config_.lr.kind));
  FingerprintMix(&hash, config_.lr.base);
  FingerprintMix(&hash, config_.lr.mu);
  FingerprintMix(&hash, config_.lr.gamma);
  FingerprintMix(&hash,
                 static_cast<uint64_t>(config_.select_all_first_round));
  FingerprintMix(&hash, config_.seed);
  FingerprintMix(&hash, static_cast<uint64_t>(num_clients()));
  // Guard + adversary scenario: a checkpoint saved under one attack /
  // hardening configuration must not resume under another — the guard
  // changes selection (quarantine drops) and the aggregate itself.
  FingerprintMix(&hash,
                 static_cast<uint64_t>(config_.guard.reject_nonfinite));
  FingerprintMix(&hash, config_.guard.clip_norm);
  FingerprintMix(&hash,
                 static_cast<uint64_t>(config_.guard.quarantine_after));
  if (adversary_ != nullptr) adversary_->MixFingerprint(&hash);
  // The data-content hash is O(data): computed on the first fingerprint
  // request (plain non-checkpointed runs never pay it) and cached — the
  // datasets are immutable after construction.
  if (!data_fingerprint_computed_) {
    data_fingerprint_ = kFingerprintSeed;
    for (const Dataset& d : client_data_) {
      MixDataset(&data_fingerprint_, d);
    }
    MixDataset(&data_fingerprint_, test_data_);
    data_fingerprint_computed_ = true;
  }
  FingerprintMix(&hash, data_fingerprint_);
  model_->MixFingerprint(&hash);
  return hash;
}

Status FedAvgTrainer::Arm(ClientSelector* selector) {
  COMFEDSV_RETURN_IF_ERROR(adversary_status_);
  if (config_.num_rounds <= 0) {
    return Status::InvalidArgument("num_rounds must be positive");
  }
  if (!std::isfinite(config_.guard.clip_norm) ||
      config_.guard.clip_norm < 0.0) {
    return Status::InvalidArgument(
        "guard.clip_norm must be finite and >= 0");
  }
  if (config_.guard.quarantine_after < 0) {
    return Status::InvalidArgument("guard.quarantine_after must be >= 0");
  }
  if (config_.selector == SelectorKind::kUniform &&
      (config_.clients_per_round <= 0 ||
       config_.clients_per_round > num_clients())) {
    return Status::InvalidArgument(
        "clients_per_round must be in [1, num_clients]");
  }
  if (config_.selector == SelectorKind::kBernoulli &&
      !(config_.participation_prob >= 0.0 &&
        config_.participation_prob <= 1.0)) {
    return Status::InvalidArgument("participation_prob must be in [0, 1]");
  }
  const LearningRateSchedule& lr = config_.lr;
  if (lr.kind == LearningRateSchedule::Kind::kConstant &&
      !(std::isfinite(lr.base) && lr.base > 0.0)) {
    return Status::InvalidArgument("lr.base must be finite and > 0");
  }
  if (lr.kind == LearningRateSchedule::Kind::kInverseDecay) {
    if (!(std::isfinite(lr.mu) && lr.mu > 0.0)) {
      return Status::InvalidArgument("lr.mu must be finite and > 0");
    }
    if (!std::isfinite(lr.gamma)) {
      return Status::InvalidArgument("lr.gamma must be finite");
    }
  }
  if (config_.local_steps < 1) {
    return Status::InvalidArgument("local_steps must be >= 1");
  }
  if (config_.batch_size < 0) {
    return Status::InvalidArgument("batch_size must be >= 0");
  }

  default_selector_.reset();
  if (selector == nullptr) {
    std::unique_ptr<ClientSelector> inner;
    if (config_.selector == SelectorKind::kBernoulli) {
      inner =
          std::make_unique<BernoulliSelector>(config_.participation_prob);
    } else {
      inner = std::make_unique<UniformSelector>(config_.clients_per_round);
    }
    if (config_.select_all_first_round) {
      default_selector_ =
          std::make_unique<EveryoneHeardSelector>(std::move(inner));
    } else {
      default_selector_ = std::move(inner);
    }
    selector = default_selector_.get();
  }
  selector_ = selector;
  return Status::Ok();
}

Status FedAvgTrainer::Begin(ClientSelector* selector) {
  COMFEDSV_RETURN_IF_ERROR(Arm(selector));

  Rng root(config_.seed);
  Rng init_rng = root.Split(0x494E4954);  // "INIT"
  select_rng_ = root.Split(0x53454C43);   // "SELC"
  model_->InitializeParams(&params_, &init_rng);

  next_round_ = 0;
  test_loss_history_.clear();
  test_loss_history_.reserve(config_.num_rounds + 1);
  record_ = RoundRecord();
  record_.local_models.resize(num_clients());
  quarantine_ = QuarantineReport();
  quarantine_.rejected.assign(num_clients(), 0);
  quarantine_.clipped.assign(num_clients(), 0);
  quarantine_.quarantine_drops.assign(num_clients(), 0);
  poisoned_at_round_ = -1;
  begun_ = true;
  return Status::Ok();
}

void FedAvgTrainer::ApplyAggregationGuard() {
  record_.rejected.clear();

  // Rule 3 first: a client already quarantined (from earlier rounds'
  // rejections) is dropped before its update is even looked at.
  if (config_.guard.quarantine_after > 0) {
    std::vector<int> kept;
    kept.reserve(record_.selected.size());
    for (int i : record_.selected) {
      if (quarantine_.IsQuarantined(i, config_.guard.quarantine_after)) {
        record_.dropped.push_back(i);
        ++quarantine_.quarantine_drops[i];
      } else {
        kept.push_back(i);
      }
    }
    if (kept.size() != record_.selected.size()) {
      record_.selected = std::move(kept);
      std::sort(record_.dropped.begin(), record_.dropped.end());
    }
  }

  const size_t selected_before = record_.selected.size();
  for (int i : record_.selected) {
    Vector& update = record_.local_models[i];
    // Rule 1: non-finite updates never reach the aggregate. The
    // recorded local model is sanitized to the broadcast global — a
    // zero-information update — so valuation arithmetic downstream
    // stays finite and scores the client near zero.
    if (config_.guard.reject_nonfinite && !AllFinite(update)) {
      update = record_.global_before;
      record_.rejected.push_back(i);
      ++quarantine_.rejected[i];
      continue;
    }
    // Rule 2: norm-clip the update delta. The clipped update is
    // canonical — aggregate and observers see the same vector.
    if (config_.guard.clip_norm > 0.0) {
      Vector delta = update;
      delta.Axpy(-1.0, record_.global_before);
      const double norm = delta.Norm2();
      if (norm > config_.guard.clip_norm) {
        update = record_.global_before;
        update.Axpy(config_.guard.clip_norm / norm, delta);
        ++quarantine_.clipped[i];
      }
    }
  }

  if (!record_.rejected.empty() || !record_.dropped.empty()) {
    ++quarantine_.rounds_degraded;
  }
  if (selected_before > 0 &&
      record_.rejected.size() == selected_before) {
    ++quarantine_.rounds_fully_rejected;
  }
}

const RoundRecord& FedAvgTrainer::Step() {
  COMFEDSV_CHECK_MSG(begun_, "Step() before Begin()");
  COMFEDSV_CHECK_MSG(!Done(), "Step() past the last round");
  const int t = next_round_;
  const int n = num_clients();
  const double lr = config_.lr.At(t);
  record_.round = t;
  record_.global_before = params_;
  record_.test_loss_before = model_->Loss(params_, test_data_);
  test_loss_history_.push_back(record_.test_loss_before);

  // Per-client RNG streams are split from (seed, round, client) so runs
  // are reproducible regardless of thread scheduling — and so a resumed
  // run re-derives the identical streams without replaying earlier
  // rounds.
  Rng round_rng =
      Rng(config_.seed).Split(0x524F554E).Split(static_cast<uint64_t>(t));
  std::vector<Rng> client_rngs;
  client_rngs.reserve(n);
  for (int i = 0; i < n; ++i) {
    client_rngs.push_back(round_rng.Split(static_cast<uint64_t>(i)));
  }
  ParallelFor(ctx_, n, [&](int i) {
    record_.local_models[i] = LocalUpdate(i, params_, lr, &client_rngs[i]);
  });

  // Adversarial transforms rewrite the updates the server *receives*;
  // they run sequentially after the parallel honest computation, so the
  // round stays thread-count invariant.
  if (adversary_ != nullptr) {
    adversary_->TransformRound(t, record_.global_before,
                               &record_.local_models);
  }

  record_.selected = selector_->Select(t, n, &select_rng_);
  record_.dropped.clear();
  if (adversary_ != nullptr) {
    record_.dropped = adversary_->ApplyDropouts(t, &record_.selected);
  }
  ApplyAggregationGuard();

  // Aggregate the surviving selected local models into the next global
  // model. Empty rounds (Bernoulli selectors hearing nobody, or every
  // update rejected by the guard) carry the global model over unchanged;
  // observers record zero contribution for such rounds.
  std::vector<int> aggregated;
  aggregated.reserve(record_.selected.size());
  std::set_difference(record_.selected.begin(), record_.selected.end(),
                      record_.rejected.begin(), record_.rejected.end(),
                      std::back_inserter(aggregated));
  if (!aggregated.empty()) {
    Vector next(params_.size());
    for (int i : aggregated) {
      COMFEDSV_CHECK_GE(i, 0);
      COMFEDSV_CHECK_LT(i, n);
      next.Axpy(1.0, record_.local_models[i]);
    }
    next.Scale(1.0 / static_cast<double>(aggregated.size()));
    params_ = std::move(next);
    // Only reachable with the guard disabled (or honest divergence):
    // remember the first poisoned round and surface it from Finish().
    if (poisoned_at_round_ < 0 && !AllFinite(params_)) {
      poisoned_at_round_ = t;
    }
  }
  ++next_round_;
  return record_;
}

Result<TrainingResult> FedAvgTrainer::Finish() const {
  if (!begun_) {
    return Status::FailedPrecondition("Finish() before Begin()");
  }
  if (!Done()) {
    return Status::FailedPrecondition("Finish() before the last round");
  }
  if (poisoned_at_round_ >= 0) {
    return Status::NumericalError(
        "global model became non-finite at round " +
        std::to_string(poisoned_at_round_) +
        " (enable guard.reject_nonfinite to degrade gracefully)");
  }
  TrainingResult result;
  result.test_loss_history = test_loss_history_;
  result.test_loss_history.push_back(model_->Loss(params_, test_data_));
  result.final_test_accuracy = model_->Accuracy(params_, test_data_);
  result.rounds_run = config_.num_rounds;
  result.final_params = params_;
  result.quarantine = quarantine_;
  return result;
}

FedAvgTrainerState FedAvgTrainer::SaveState() const {
  COMFEDSV_CHECK_MSG(begun_, "SaveState() before Begin()");
  FedAvgTrainerState state;
  state.config_fingerprint = ConfigFingerprint();
  state.next_round = next_round_;
  state.params = params_;
  state.test_loss_history = test_loss_history_;
  state.select_rng = select_rng_.SaveState();
  state.quarantine = quarantine_;
  return state;
}

Status FedAvgTrainer::RestoreState(const FedAvgTrainerState& state,
                                   ClientSelector* selector) {
  COMFEDSV_RETURN_IF_ERROR(Begin(selector));
  if (state.config_fingerprint != ConfigFingerprint()) {
    return Status::FailedPrecondition(
        "trainer state was saved under a different config/data/model");
  }
  if (state.next_round < 0 || state.next_round > config_.num_rounds) {
    return Status::InvalidArgument("trainer state round out of range");
  }
  if (state.params.size() != params_.size()) {
    return Status::InvalidArgument(
        "trainer state parameter dimension mismatch");
  }
  if (state.test_loss_history.size() !=
      static_cast<size_t>(state.next_round)) {
    return Status::InvalidArgument(
        "trainer state loss history length mismatch");
  }
  const size_t n = static_cast<size_t>(num_clients());
  if (state.quarantine.rejected.size() != n ||
      state.quarantine.clipped.size() != n ||
      state.quarantine.quarantine_drops.size() != n) {
    return Status::InvalidArgument(
        "trainer state quarantine counters length mismatch");
  }
  for (size_t i = 0; i < n; ++i) {
    if (state.quarantine.rejected[i] < 0 ||
        state.quarantine.clipped[i] < 0 ||
        state.quarantine.quarantine_drops[i] < 0) {
      return Status::InvalidArgument(
          "trainer state quarantine counters must be non-negative");
    }
  }
  if (state.quarantine.rounds_degraded < 0 ||
      state.quarantine.rounds_fully_rejected < 0 ||
      state.quarantine.rounds_degraded > state.next_round ||
      state.quarantine.rounds_fully_rejected >
          state.quarantine.rounds_degraded) {
    return Status::InvalidArgument(
        "trainer state quarantine round counters out of range");
  }
  next_round_ = state.next_round;
  params_ = state.params;
  test_loss_history_ = state.test_loss_history;
  select_rng_ = Rng::FromState(state.select_rng);
  quarantine_ = state.quarantine;
  return Status::Ok();
}

Result<TrainingResult> FedAvgTrainer::Train(RoundObserver* observer,
                                            ClientSelector* selector) {
  COMFEDSV_RETURN_IF_ERROR(Begin(selector));
  while (!Done()) {
    const RoundRecord& record = Step();
    if (observer != nullptr) observer->OnRound(record);
  }
  return Finish();
}

}  // namespace comfedsv
