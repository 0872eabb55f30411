#include "core/checkpointing.h"

#include <string>
#include <utility>

#include "common/fingerprint.h"
#include "core/pipeline.h"

namespace comfedsv {
namespace {

void MixSampler(uint64_t* hash, const SamplerConfig& sampler) {
  FingerprintMix(hash, static_cast<uint64_t>(sampler.kind));
  FingerprintMix(hash, sampler.truncation_tolerance);
}

void MixCompletion(uint64_t* hash, const CompletionConfig& completion) {
  FingerprintMix(hash, static_cast<uint64_t>(completion.rank));
  FingerprintMix(hash, completion.lambda);
  FingerprintMix(hash, static_cast<uint64_t>(completion.max_iters));
  FingerprintMix(hash, completion.tolerance);
  FingerprintMix(hash, static_cast<uint64_t>(completion.solver));
  // Retired SGD step size: its old default keeps every fingerprint.
  FingerprintMix(hash, 0.02);
  FingerprintMix(hash, completion.init_scale);
  FingerprintMix(hash, completion.temporal_smoothing);
  FingerprintMix(hash, completion.seed);
}

void SaveTriplets(const std::vector<Observation>& triplets,
                  BinaryWriter* out) {
  out->Reserve(triplets.size() * 16 + 8);
  out->U64(triplets.size());
  for (const Observation& o : triplets) {
    out->I32(o.row);
    out->I32(o.col);
    out->F64(o.value);
  }
}

Status LoadTriplets(BinaryReader* in, std::vector<Observation>* triplets) {
  uint64_t count = 0;
  COMFEDSV_RETURN_IF_ERROR(in->Count(16, &count));
  triplets->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    Observation& o = (*triplets)[i];
    COMFEDSV_RETURN_IF_ERROR(in->I32(&o.row));
    COMFEDSV_RETURN_IF_ERROR(in->I32(&o.col));
    COMFEDSV_RETURN_IF_ERROR(in->F64(&o.value));
  }
  return Status::Ok();
}

// An evaluator's cost counters, written inline in its state chunk.
void SaveStats(const UtilityStats& stats, BinaryWriter* out) {
  out->I64(stats.loss_calls);
  out->I64(stats.batched_calls);
  out->I64(stats.memo_hits);
}

Status LoadStats(BinaryReader* in, UtilityStats* stats) {
  UtilityStats loaded;
  COMFEDSV_RETURN_IF_ERROR(in->I64(&loaded.loss_calls));
  COMFEDSV_RETURN_IF_ERROR(in->I64(&loaded.batched_calls));
  COMFEDSV_RETURN_IF_ERROR(in->I64(&loaded.memo_hits));
  if (!loaded.Valid()) {
    return Status::DataLoss("corrupt evaluator state: negative count");
  }
  *stats = loaded;
  return Status::Ok();
}

// Presence flag + state chunk for one optional evaluator. Restoring a
// checkpoint whose flags disagree with the current request is an error.
Status LoadPresence(BinaryReader* in, bool expected, const char* what) {
  uint8_t present = 0;
  COMFEDSV_RETURN_IF_ERROR(in->U8(&present));
  if (present > 1) {
    return Status::DataLoss("corrupt checkpoint: bad presence flag");
  }
  if ((present != 0) != expected) {
    return Status::FailedPrecondition(
        std::string("checkpoint was saved with a different request: ") +
        what + (expected ? " missing" : " unexpectedly present"));
  }
  return Status::Ok();
}

}  // namespace

CheckpointManagerOptions ManagerOptions(const CheckpointConfig& config) {
  CheckpointManagerOptions options;
  options.keep_generations = config.keep_generations;
  options.max_retries = config.max_retries;
  options.retry_backoff_ms = config.retry_backoff_ms;
  options.env = config.env;
  return options;
}

Status ValidateCheckpointConfig(const CheckpointConfig& config) {
  auto bad = [](const std::string& what) {
    return Status::InvalidArgument("checkpoint " + what);
  };
  if (config.path.empty()) return bad("path must be non-empty");
  if (config.every_rounds < 1) {
    return bad("every_rounds must be >= 1, got " +
               std::to_string(config.every_rounds));
  }
  if (config.round_log_index_every < 1) {
    return bad("round_log_index_every must be >= 1, got " +
               std::to_string(config.round_log_index_every));
  }
  Status manager = ValidateCheckpointManagerOptions(ManagerOptions(config));
  return manager.ok() ? manager : bad(manager.message());
}

uint64_t ValuationFingerprint(const FedAvgTrainer& trainer,
                              const ValuationRequest& request) {
  uint64_t hash = trainer.ConfigFingerprint();
  FingerprintMix(&hash, RequestFingerprint(request));
  return hash;
}

uint64_t RequestFingerprint(const ValuationRequest& request) {
  uint64_t hash = kFingerprintSeed;
  FingerprintMix(&hash, static_cast<uint64_t>(request.compute_fedsv));
  if (request.compute_fedsv) {
    FingerprintMix(&hash, static_cast<uint64_t>(request.fedsv.mode));
    FingerprintMix(&hash, static_cast<uint64_t>(
                              request.fedsv.permutations_per_round));
    MixSampler(&hash, request.fedsv.sampler);
    FingerprintMix(&hash, request.fedsv.seed);
  }
  FingerprintMix(&hash, static_cast<uint64_t>(request.compute_comfedsv));
  if (request.compute_comfedsv) {
    FingerprintMix(&hash, static_cast<uint64_t>(request.comfedsv.mode));
    MixCompletion(&hash, request.comfedsv.completion);
    FingerprintMix(&hash, static_cast<uint64_t>(
                              request.comfedsv.num_permutations));
    MixSampler(&hash, request.comfedsv.sampler);
    FingerprintMix(&hash, request.comfedsv.seed);
  }
  FingerprintMix(&hash,
                 static_cast<uint64_t>(request.compute_ground_truth));
  return hash;
}

void SaveFedSvState(const FedSvEvaluatorState& s, BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kFedSvState);
  SaveVector(s.values, out);
  SaveRngState(s.rng, out);
  SaveStats(s.stats, out);
  out->EndChunk(handle);
}

Status LoadFedSvState(BinaryReader* in, FedSvEvaluatorState* s) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(in->BeginChunk(ChunkTag::kFedSvState, &end));
  FedSvEvaluatorState loaded;
  COMFEDSV_RETURN_IF_ERROR(LoadVector(in, &loaded.values));
  COMFEDSV_RETURN_IF_ERROR(LoadRngState(in, &loaded.rng));
  COMFEDSV_RETURN_IF_ERROR(LoadStats(in, &loaded.stats));
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  *s = std::move(loaded);
  return Status::Ok();
}

void SaveFullRecorderState(const FullRecorderState& s, BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kFullRecorderState);
  out->U64(s.rows.size());
  for (const std::vector<double>& row : s.rows) {
    out->U64(row.size());
    for (double v : row) out->F64(v);
  }
  SaveStats(s.stats, out);
  out->EndChunk(handle);
}

Status LoadFullRecorderState(BinaryReader* in, FullRecorderState* s) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(
      in->BeginChunk(ChunkTag::kFullRecorderState, &end));
  FullRecorderState loaded;
  uint64_t num_rows = 0;
  COMFEDSV_RETURN_IF_ERROR(in->Count(8, &num_rows));
  loaded.rows.resize(num_rows);
  for (uint64_t t = 0; t < num_rows; ++t) {
    uint64_t width = 0;
    COMFEDSV_RETURN_IF_ERROR(in->Count(8, &width));
    loaded.rows[t].resize(width);
    for (uint64_t c = 0; c < width; ++c) {
      COMFEDSV_RETURN_IF_ERROR(in->F64(&loaded.rows[t][c]));
    }
    if (loaded.rows[t].size() != loaded.rows[0].size()) {
      return Status::DataLoss(
          "corrupt full-recorder state: ragged rows");
    }
  }
  COMFEDSV_RETURN_IF_ERROR(LoadStats(in, &loaded.stats));
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  *s = std::move(loaded);
  return Status::Ok();
}

void SaveObservedRecorderState(const ObservedRecorderState& s,
                               BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kObservedRecorderState);
  SaveInterner(s.interner, out);
  SaveTriplets(s.triplets, out);
  out->I32(s.rounds_recorded);
  SaveStats(s.stats, out);
  out->EndChunk(handle);
}

Status LoadObservedRecorderState(BinaryReader* in,
                                 ObservedRecorderState* s) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(
      in->BeginChunk(ChunkTag::kObservedRecorderState, &end));
  ObservedRecorderState loaded;
  COMFEDSV_RETURN_IF_ERROR(LoadInterner(in, &loaded.interner));
  COMFEDSV_RETURN_IF_ERROR(LoadTriplets(in, &loaded.triplets));
  COMFEDSV_RETURN_IF_ERROR(in->I32(&loaded.rounds_recorded));
  COMFEDSV_RETURN_IF_ERROR(LoadStats(in, &loaded.stats));
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  // Structural validation (triplets against interner/rounds) happens in
  // ObservedUtilityRecorder::RestoreState, which owns the invariants.
  *s = std::move(loaded);
  return Status::Ok();
}

void SaveSampledRecorderState(const SampledRecorderState& s,
                              BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kSampledRecorderState);
  SaveTriplets(s.triplets, out);
  out->I32(s.rounds_recorded);
  SaveStats(s.stats, out);
  out->EndChunk(handle);
}

Status LoadSampledRecorderState(BinaryReader* in,
                                SampledRecorderState* s) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(
      in->BeginChunk(ChunkTag::kSampledRecorderState, &end));
  SampledRecorderState loaded;
  COMFEDSV_RETURN_IF_ERROR(LoadTriplets(in, &loaded.triplets));
  COMFEDSV_RETURN_IF_ERROR(in->I32(&loaded.rounds_recorded));
  COMFEDSV_RETURN_IF_ERROR(LoadStats(in, &loaded.stats));
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  *s = std::move(loaded);
  return Status::Ok();
}

void SaveEvaluatorStates(const FedSvEvaluator* fedsv,
                         const ComFedSvEvaluator* comfedsv,
                         const GroundTruthEvaluator* ground_truth,
                         BinaryWriter* out) {
  out->U8(fedsv != nullptr ? 1 : 0);
  if (fedsv != nullptr) SaveFedSvState(fedsv->SaveState(), out);
  out->U8(comfedsv != nullptr ? 1 : 0);
  if (comfedsv != nullptr) {
    const bool is_full = comfedsv->full_recorder() != nullptr;
    out->U8(is_full ? 1 : 0);
    if (is_full) {
      SaveObservedRecorderState(comfedsv->full_recorder()->SaveState(),
                                out);
    } else {
      SaveSampledRecorderState(comfedsv->sampled_recorder()->SaveState(),
                               out);
    }
  }
  out->U8(ground_truth != nullptr ? 1 : 0);
  if (ground_truth != nullptr) {
    SaveFullRecorderState(ground_truth->recorder()->SaveState(), out);
  }
}

Status LoadEvaluatorStates(BinaryReader* in, FedSvEvaluator* fedsv,
                           ComFedSvEvaluator* comfedsv,
                           GroundTruthEvaluator* ground_truth) {
  COMFEDSV_RETURN_IF_ERROR(
      LoadPresence(in, fedsv != nullptr, "FedSV state"));
  FedSvEvaluatorState fedsv_state;
  if (fedsv != nullptr) {
    COMFEDSV_RETURN_IF_ERROR(LoadFedSvState(in, &fedsv_state));
  }

  COMFEDSV_RETURN_IF_ERROR(
      LoadPresence(in, comfedsv != nullptr, "ComFedSV state"));
  ObservedRecorderState observed_state;
  SampledRecorderState sampled_state;
  bool comfedsv_is_full = false;
  if (comfedsv != nullptr) {
    uint8_t is_full = 0;
    COMFEDSV_RETURN_IF_ERROR(in->U8(&is_full));
    if (is_full > 1) {
      return Status::DataLoss("corrupt checkpoint: bad mode flag");
    }
    comfedsv_is_full = is_full != 0;
    if (comfedsv_is_full != (comfedsv->full_recorder() != nullptr)) {
      return Status::FailedPrecondition(
          "checkpoint was saved under the other ComFedSV mode");
    }
    if (comfedsv_is_full) {
      COMFEDSV_RETURN_IF_ERROR(
          LoadObservedRecorderState(in, &observed_state));
    } else {
      COMFEDSV_RETURN_IF_ERROR(
          LoadSampledRecorderState(in, &sampled_state));
    }
  }

  COMFEDSV_RETURN_IF_ERROR(
      LoadPresence(in, ground_truth != nullptr, "ground-truth state"));
  FullRecorderState ground_truth_state;
  if (ground_truth != nullptr) {
    COMFEDSV_RETURN_IF_ERROR(
        LoadFullRecorderState(in, &ground_truth_state));
  }

  // Every state chunk parsed — apply. An apply-phase failure (see the
  // header contract) leaves earlier evaluators restored; callers
  // discard the components on any error.
  if (fedsv != nullptr) {
    COMFEDSV_RETURN_IF_ERROR(fedsv->RestoreState(fedsv_state));
  }
  if (comfedsv != nullptr) {
    if (comfedsv_is_full) {
      COMFEDSV_RETURN_IF_ERROR(comfedsv->full_recorder()->RestoreState(
          std::move(observed_state)));
    } else {
      COMFEDSV_RETURN_IF_ERROR(comfedsv->sampled_recorder()->RestoreState(
          std::move(sampled_state)));
    }
  }
  if (ground_truth != nullptr) {
    COMFEDSV_RETURN_IF_ERROR(ground_truth->recorder()->RestoreState(
        std::move(ground_truth_state)));
  }
  return Status::Ok();
}

std::string SerializeValuationCheckpoint(
    uint64_t fingerprint, const FedAvgTrainer& trainer,
    const FedSvEvaluator* fedsv, const ComFedSvEvaluator* comfedsv,
    const GroundTruthEvaluator* ground_truth) {
  BinaryWriter payload;
  const size_t handle =
      payload.BeginChunk(ChunkTag::kValuationCheckpoint);
  payload.U64(fingerprint);
  SaveTrainerState(trainer.SaveState(), &payload);
  SaveEvaluatorStates(fedsv, comfedsv, ground_truth, &payload);
  payload.EndChunk(handle);
  return payload.buffer();
}

Status RestoreValuationCheckpoint(std::string_view payload,
                                  uint64_t fingerprint,
                                  FedAvgTrainer* trainer,
                                  FedSvEvaluator* fedsv,
                                  ComFedSvEvaluator* comfedsv,
                                  GroundTruthEvaluator* ground_truth) {
  BinaryReader reader(payload);
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(
      reader.BeginChunk(ChunkTag::kValuationCheckpoint, &end));
  uint64_t saved_fingerprint = 0;
  COMFEDSV_RETURN_IF_ERROR(reader.U64(&saved_fingerprint));
  if (saved_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "checkpoint was saved under a different "
        "config/data/model/request");
  }

  FedAvgTrainerState trainer_state;
  COMFEDSV_RETURN_IF_ERROR(LoadTrainerState(&reader, &trainer_state));
  COMFEDSV_RETURN_IF_ERROR(trainer->RestoreState(trainer_state));
  // Parse-then-apply per evaluator; on error the pipeline is partially
  // restored and the caller must abandon the resume or fully restore
  // another payload over it (the CheckpointManager salvage loop does the
  // latter — each older generation holds a complete state).
  COMFEDSV_RETURN_IF_ERROR(
      LoadEvaluatorStates(&reader, fedsv, comfedsv, ground_truth));
  return reader.EndChunk(end);
}

}  // namespace comfedsv
