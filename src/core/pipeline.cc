#include "core/pipeline.h"

#include <memory>
#include <optional>
#include <string>

#include "core/recorders.h"
#include "core/streaming.h"

namespace comfedsv {
namespace {

// The requests the recorders cannot serve (they CHECK these), rejected
// before any component is built.
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
  if (!request.compute_comfedsv) return Status::Ok();
  if (request.comfedsv.mode == ComFedSvConfig::Mode::kFull &&
      num_clients > kMaxObservedClients) {
    return Status::InvalidArgument(
        "comfedsv.mode kFull needs num_clients <= " +
        std::to_string(kMaxObservedClients) + ", got " +
        std::to_string(num_clients));
  }
  if (request.comfedsv.mode == ComFedSvConfig::Mode::kSampled &&
      request.comfedsv.sampler.kind == SamplerKind::kTruncated &&
      request.comfedsv.sampler.truncation_tolerance < 0.0) {
    return Status::InvalidArgument(
        "comfedsv.sampler.truncation_tolerance must be >= 0");
  }
  return Status::Ok();
}

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
    if (checkpoint->path.empty()) {
      return Status::InvalidArgument("checkpoint path must be non-empty");
    }
    if (checkpoint->every_rounds <= 0) {
      return Status::InvalidArgument(
          "checkpoint every_rounds must be positive");
    }
    if (checkpoint->round_log_index_every <= 0) {
      return Status::InvalidArgument(
          "checkpoint round_log_index_every must be positive");
    }
    if (checkpoint->keep_generations < 1) {
      return Status::InvalidArgument(
          "checkpoint keep_generations must be positive");
    }
    if (checkpoint->max_retries < 0) {
      return Status::InvalidArgument(
          "checkpoint max_retries must be non-negative");
    }
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
    CheckpointManagerOptions mgr_options;
    mgr_options.keep_generations = checkpoint->keep_generations;
    mgr_options.max_retries = checkpoint->max_retries;
    mgr_options.retry_backoff_ms = checkpoint->retry_backoff_ms;
    mgr_options.env = checkpoint->env;
    manager.emplace(checkpoint->path, std::move(mgr_options));
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
