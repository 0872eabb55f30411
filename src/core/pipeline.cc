#include "core/pipeline.h"

#include <memory>
#include <optional>
#include <string>

#include "core/recorders.h"
#include "core/streaming.h"

namespace comfedsv {

Status ValidateRequest(const ValuationRequest& request, int num_clients) {
  if (num_clients <= 0) {
    return Status::InvalidArgument("num_clients must be positive");
  }
  if (request.compute_ground_truth && num_clients > kMaxFullClients) {
    return Status::InvalidArgument(
        "compute_ground_truth needs num_clients <= " +
        std::to_string(kMaxFullClients) + ", got " +
        std::to_string(num_clients));
  }
  if (request.compute_fedsv &&
      request.fedsv.mode == FedSvConfig::Mode::kMonteCarlo) {
    if (Status s = ValidateSamplerConfig(request.fedsv.sampler); !s.ok()) {
      return Status::InvalidArgument("fedsv.sampler." + s.message());
    }
  }
  if (!request.compute_comfedsv) return Status::Ok();
  if (Status s = ValidateCompletionConfig(request.comfedsv.completion);
      !s.ok()) {
    return Status::InvalidArgument("comfedsv.completion." + s.message());
  }
  if (request.comfedsv.mode == ComFedSvConfig::Mode::kFull &&
      num_clients > kMaxObservedClients) {
    return Status::InvalidArgument(
        "comfedsv.mode kFull needs num_clients <= " +
        std::to_string(kMaxObservedClients) + ", got " +
        std::to_string(num_clients));
  }
  if (request.comfedsv.mode == ComFedSvConfig::Mode::kSampled) {
    if (Status s = ValidateSamplerConfig(request.comfedsv.sampler);
        !s.ok()) {
      return Status::InvalidArgument("comfedsv.sampler." + s.message());
    }
  }
  return Status::Ok();
}

namespace {

// Shared driver of the plain and checkpointed pipelines: the trainer is
// stepped one round at a time into a StreamingValuationEngine, which
// owns the evaluators, the round-log spill and the checkpoint I/O. The
// plain variant is the same loop with `checkpoint` null.
Result<ValuationOutcome> RunValuationImpl(const Model& model,
                                          std::vector<Dataset> client_data,
                                          Dataset test_data,
                                          const FedAvgConfig& fed_config,
                                          const ValuationRequest& request,
                                          const CheckpointConfig* checkpoint,
                                          ExecutionContext* ctx) {
  const int n = static_cast<int>(client_data.size());
  COMFEDSV_RETURN_IF_ERROR(ValidateRequest(request, n));

  const bool needs_assumption1 =
      request.compute_ground_truth ||
      (request.compute_comfedsv &&
       request.comfedsv.mode == ComFedSvConfig::Mode::kFull);
  if (needs_assumption1 && !fed_config.select_all_first_round) {
    return Status::FailedPrecondition(
        "full ComFedSV / ground truth require select_all_first_round "
        "(Assumption 1)");
  }
  StreamingConfig config;
  config.request = request;
  if (checkpoint != nullptr) {
    COMFEDSV_RETURN_IF_ERROR(ValidateCheckpointConfig(*checkpoint));
    config.spill.enabled = !checkpoint->round_log_path.empty();
    config.spill.path = checkpoint->round_log_path;
    config.spill.compression = checkpoint->round_log_compression;
    config.spill.index_every = checkpoint->round_log_index_every;
    config.spill.env = checkpoint->env;
  }

  FedAvgTrainer trainer(&model, std::move(client_data),
                        std::move(test_data), fed_config, ctx);
  StreamingValuationEngine engine(&model, &trainer.test_data(), n, config,
                                  ctx);
  COMFEDSV_RETURN_IF_ERROR(trainer.Begin());

  const bool strict = checkpoint != nullptr && checkpoint->require_durable;
  std::optional<CheckpointManager> manager;
  if (checkpoint != nullptr) {
    manager.emplace(checkpoint->path, ManagerOptions(*checkpoint));
    if (checkpoint->resume) {
      // No checkpoint at all means a fresh run; anything else — every
      // generation corrupt (DataLoss), fingerprint mismatch
      // (FailedPrecondition), environment down — must not silently
      // recompute T rounds.
      Status restored = engine.RestoreCheckpoint(&*manager, &trainer);
      if (!restored.ok() && restored.code() != StatusCode::kNotFound) {
        return restored;
      }
    }
  }

  while (!trainer.Done()) {
    // Spill and save failures degrade the run (the engine's health
    // records them) unless the caller demanded durability.
    Status spilled = engine.Consume(trainer.Step());
    if (!spilled.ok() && strict) return spilled;
    if (manager.has_value() &&
        (trainer.next_round() % checkpoint->every_rounds == 0 ||
         trainer.Done())) {
      Status saved = engine.SaveCheckpoint(&*manager, &trainer);
      if (!saved.ok() && strict) return saved;
    }
  }

  Result<TrainingResult> training = trainer.Finish();
  if (!training.ok()) return training.status();
  Result<ValuationOutcome> outcome = engine.Finalize();
  if (!outcome.ok()) return outcome.status();
  outcome.value().training = std::move(training).value();
  return outcome;
}

}  // namespace

Result<ValuationOutcome> RunValuation(const Model& model,
                                      std::vector<Dataset> client_data,
                                      Dataset test_data,
                                      const FedAvgConfig& fed_config,
                                      const ValuationRequest& request,
                                      ExecutionContext* ctx) {
  return RunValuationImpl(model, std::move(client_data),
                          std::move(test_data), fed_config, request,
                          nullptr, ctx);
}

Result<ValuationOutcome> RunValuationCheckpointed(
    const Model& model, std::vector<Dataset> client_data, Dataset test_data,
    const FedAvgConfig& fed_config, const ValuationRequest& request,
    const CheckpointConfig& checkpoint, ExecutionContext* ctx) {
  return RunValuationImpl(model, std::move(client_data),
                          std::move(test_data), fed_config, request,
                          &checkpoint, ctx);
}

Result<ValuationOutcome> RunValuationFromLog(
    const Model& model, const Dataset& test_data, int num_clients,
    const std::string& log_path, const ValuationRequest& request,
    const RoundLogReadOptions& read_options, ExecutionContext* ctx) {
  COMFEDSV_RETURN_IF_ERROR(ValidateRequest(request, num_clients));
  Result<std::unique_ptr<RoundLogReader>> reader =
      RoundLogReader::Open(log_path, read_options);
  if (!reader.ok()) return reader.status();

  // A streaming engine with no snapshots is exactly the batch pipeline
  // fed from disk: OnRound accumulates per record, Finalize() is the
  // cold batch-equivalent solve. Resident memory stays at one frame and
  // one decoded record, whatever the trajectory length.
  StreamingConfig config;
  config.request = request;
  StreamingValuationEngine engine(&model, &test_data, num_clients, config,
                                  ctx);
  RoundRecord record;
  for (int pos = 0; pos < reader.value()->rounds(); ++pos) {
    COMFEDSV_RETURN_IF_ERROR(reader.value()->Read(pos, &record));
    engine.OnRound(record);
  }
  return engine.Finalize();
}

}  // namespace comfedsv
