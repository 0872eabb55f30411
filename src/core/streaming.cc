#include "core/streaming.h"

#include <utility>

#include "common/check.h"
#include "common/fingerprint.h"
#include "io/checkpoint_manager.h"

namespace comfedsv {

StreamingValuationEngine::StreamingValuationEngine(
    const Model* model, const Dataset* test_data, int num_clients,
    StreamingConfig config, ExecutionContext* ctx)
    : model_(model),
      test_data_(test_data),
      num_clients_(num_clients),
      config_(std::move(config)),
      ctx_(ctx),
      request_status_(ValidateRequest(config_.request, num_clients_)) {
  COMFEDSV_CHECK(model_ != nullptr);
  COMFEDSV_CHECK(test_data_ != nullptr);
  if (!request_status_.ok()) return;
  if (config_.request.compute_fedsv) {
    fedsv_ = std::make_unique<FedSvEvaluator>(
        model_, test_data_, num_clients_, config_.request.fedsv, ctx);
  }
  if (config_.request.compute_comfedsv) {
    comfedsv_ = std::make_unique<ComFedSvEvaluator>(
        model_, test_data_, num_clients_, config_.request.comfedsv, ctx);
  }
  if (config_.request.compute_ground_truth) {
    ground_truth_ = std::make_unique<GroundTruthEvaluator>(
        model_, test_data_, num_clients_, ctx);
  }
}

Status StreamingValuationEngine::Consume(const RoundRecord& record) {
  COMFEDSV_RETURN_IF_ERROR(request_status_);
  const Status spilled =
      config_.spill.enabled ? SpillRound(record) : Status::Ok();
  // One memo for the round: each evaluator reads the others' measured
  // coalitions at no cost, and is still charged what it alone would have
  // paid (see shapley/utility.h). The order is explained in the header.
  RoundUtility utility(model_, test_data_, &record, ctx_);
  if (comfedsv_ != nullptr) comfedsv_->OnRound(record, &utility);
  if (fedsv_ != nullptr) fedsv_->OnRound(record, &utility);
  if (ground_truth_ != nullptr) ground_truth_->OnRound(record, &utility);
  measured_loss_calls_ += utility.measured_loss_calls();
  test_loss_history_.push_back(record.test_loss_before);
  ++rounds_consumed_;
  ++health_.rounds_since_durable;
  return spilled;
}

Status StreamingValuationEngine::Degrade(int64_t* counter, Status failure) {
  health_.degraded = true;
  ++*counter;
  ++health_.consecutive_failures;
  health_.last_error = failure.ToString();
  return failure;
}

void StreamingValuationEngine::MarkDurable() {
  health_.degraded = false;
  health_.consecutive_failures = 0;
  health_.rounds_since_durable = 0;
}

Status StreamingValuationEngine::SpillRound(const RoundRecord& record) {
  if (spill_writer_ == nullptr) {
    RoundLogOptions options;
    options.compression = config_.spill.compression;
    options.index_every = config_.spill.index_every;
    options.env = config_.spill.env;
    // Fresh stream: new log. Mid-stream (a restore, or an earlier open
    // failure): re-open behind the already-consumed rounds, truncating
    // whatever a crashed predecessor appended beyond them.
    Result<std::unique_ptr<RoundLogWriter>> opened =
        rounds_consumed_ == 0
            ? RoundLogWriter::Create(config_.spill.path, options)
            : RoundLogWriter::OpenForAppend(config_.spill.path,
                                            rounds_consumed_, options);
    if (!opened.ok()) {
      return Degrade(&health_.spill_failures, opened.status());
    }
    spill_writer_ = std::move(opened).value();
    // When the restored checkpoint recorded a log position for exactly
    // this round, the truncated log must match it byte for byte —
    // anything else means the log and the checkpoint diverged.
    if (restored_spill_rounds_ == rounds_consumed_ &&
        spill_writer_->data_size() != restored_spill_bytes_) {
      spill_writer_.reset();
      return Degrade(&health_.spill_failures,
                     Status::DataLoss("round log size after realignment "
                                      "does not match the checkpointed "
                                      "position"));
    }
    restored_spill_rounds_ = -1;
  }
  Status appended = spill_writer_->Append(record);
  if (!appended.ok()) return Degrade(&health_.spill_failures, appended);
  return appended;
}

Status StreamingValuationEngine::SyncSpill() {
  if (spill_writer_ == nullptr) return Status::Ok();
  Status synced = spill_writer_->Sync();
  if (!synced.ok()) return Degrade(&health_.spill_failures, synced);
  return synced;
}

Result<ValuationOutcome> StreamingValuationEngine::Snapshot() {
  COMFEDSV_RETURN_IF_ERROR(request_status_);
  if (config_.resolve_cadence < 1) {
    return Status::InvalidArgument(
        "StreamingConfig::resolve_cadence must be >= 1");
  }
  std::optional<ComFedSvOutput> comfedsv;
  if (comfedsv_ != nullptr) {
    const bool stale_ok =
        last_output_.has_value() &&
        rounds_consumed_ - last_solve_round_ < config_.resolve_cadence;
    if (!stale_ok) {
      Result<ComFedSvOutput> solved =
          (config_.warm_start && factors_.has_value())
              ? comfedsv_->FinalizeWarm(*factors_, config_.warm_max_iters)
              : comfedsv_->Finalize();
      if (!solved.ok()) {
        // Degrade instead of poisoning the stream: the recorders are
        // untouched by a failed solve, so the last good output is still
        // a valid (stale) valuation of an earlier prefix. With nothing
        // to fall back on the error surfaces as before.
        if (!last_output_.has_value()) return solved.status();
        (void)Degrade(&health_.stale_snapshots, solved.status());
      } else {
        health_.degraded = false;
        health_.consecutive_failures = 0;
        last_output_ = std::move(solved).value();
        factors_ = FactorPair{last_output_->completion.w,
                              last_output_->completion.h};
        last_solve_round_ = rounds_consumed_;
      }
    }
    comfedsv = *last_output_;
  }
  return Outcome(std::move(comfedsv));
}

Result<ValuationOutcome> StreamingValuationEngine::Finalize() const {
  COMFEDSV_RETURN_IF_ERROR(request_status_);
  std::optional<ComFedSvOutput> comfedsv;
  if (comfedsv_ != nullptr) {
    Result<ComFedSvOutput> solved = comfedsv_->Finalize();
    if (!solved.ok()) return solved.status();
    comfedsv = std::move(solved).value();
  }
  return Outcome(std::move(comfedsv));
}

Result<ValuationOutcome> StreamingValuationEngine::Outcome(
    std::optional<ComFedSvOutput> comfedsv) const {
  ValuationOutcome out;
  out.training.rounds_run = rounds_consumed_;
  out.training.test_loss_history = test_loss_history_;
  if (fedsv_ != nullptr) {
    out.fedsv_values = fedsv_->values();
    out.fedsv_stats = fedsv_->stats();
  }
  out.comfedsv = std::move(comfedsv);
  out.measured_loss_calls = measured_loss_calls_;
  if (ground_truth_ != nullptr) {
    Result<Vector> values = ground_truth_->Finalize();
    if (!values.ok()) return values.status();
    out.ground_truth_values = std::move(values).value();
    out.ground_truth_stats = ground_truth_->stats();
  }
  out.health = health_;
  return out;
}

uint64_t StreamingValuationEngine::ConfigFingerprint() const {
  // The engine's own policy knobs (cadence, warm start) do not change
  // what OnRound accumulates, so the fingerprint covers only the
  // request-equivalent state — what a checkpoint must agree on for the
  // restored accumulations to mean the same thing — plus the client
  // count. (The training trajectory behind the consumed rounds is the
  // caller's concern — or pass the trainer to SaveCheckpoint, whose
  // kValuationCheckpoint fingerprint covers it.)
  uint64_t hash = kFingerprintSeed;
  FingerprintMix(&hash, static_cast<uint64_t>(num_clients_));
  FingerprintMix(&hash, RequestFingerprint(config_.request));
  // Spill mode appends its log position to the engine state, so it must
  // break compatibility with non-spill checkpoints — but only when on,
  // keeping pre-existing fingerprints intact. The path is deliberately
  // excluded (a log may be relocated); the compression mode is not (the
  // resumed writer must keep appending in the same encoding).
  if (config_.spill.enabled) {
    FingerprintMix(&hash, uint64_t{0x524C4F47});  // "RLOG"
    FingerprintMix(&hash,
                   static_cast<uint64_t>(config_.spill.compression));
  }
  return hash;
}

void StreamingValuationEngine::SaveState(BinaryWriter* out) const {
  const size_t handle = out->BeginChunk(ChunkTag::kStreamingEngineState);
  out->U64(ConfigFingerprint());
  out->I32(rounds_consumed_);
  out->U64(test_loss_history_.size());
  for (double v : test_loss_history_) out->F64(v);
  SaveEvaluatorStates(fedsv_.get(), comfedsv_.get(), ground_truth_.get(),
                      out);
  out->U8(factors_.has_value() ? 1 : 0);
  if (factors_.has_value()) SaveFactorPair(*factors_, out);
  // Spill-gated tail (the fingerprint already separates the layouts):
  // the log position this state corresponds to, so a restore can verify
  // the realigned log matches byte-for-byte.
  if (config_.spill.enabled) {
    out->I32(spill_writer_ != nullptr ? spill_writer_->rounds() : 0);
    out->U64(spill_writer_ != nullptr ? spill_writer_->data_size() : 0);
  }
  out->EndChunk(handle);
}

Status StreamingValuationEngine::RestoreState(BinaryReader* in) {
  COMFEDSV_RETURN_IF_ERROR(request_status_);
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(
      in->BeginChunk(ChunkTag::kStreamingEngineState, &end));
  uint64_t fingerprint = 0;
  COMFEDSV_RETURN_IF_ERROR(in->U64(&fingerprint));
  if (fingerprint != ConfigFingerprint()) {
    return Status::FailedPrecondition(
        "streaming engine state was saved under a different "
        "request/client count");
  }
  int32_t rounds = 0;
  COMFEDSV_RETURN_IF_ERROR(in->I32(&rounds));
  if (rounds < 0) {
    return Status::DataLoss("corrupt engine state: negative rounds");
  }
  uint64_t history_len = 0;
  COMFEDSV_RETURN_IF_ERROR(in->Count(8, &history_len));
  if (history_len != static_cast<uint64_t>(rounds)) {
    return Status::DataLoss(
        "corrupt engine state: history length mismatch");
  }
  std::vector<double> history(history_len);
  for (double& v : history) {
    COMFEDSV_RETURN_IF_ERROR(in->F64(&v));
  }

  // The shared evaluator-state section (see checkpointing.h): parses
  // every state chunk, then applies. If anything from here on fails the
  // engine may be partially restored — per the RestoreState contract
  // the caller must discard it and construct a fresh engine to retry.
  COMFEDSV_RETURN_IF_ERROR(LoadEvaluatorStates(
      in, fedsv_.get(), comfedsv_.get(), ground_truth_.get()));

  uint8_t has_factors = 0;
  COMFEDSV_RETURN_IF_ERROR(in->U8(&has_factors));
  if (has_factors > 1) {
    return Status::DataLoss("corrupt engine state: factor flag");
  }
  FactorPair factors;
  if (has_factors != 0) {
    COMFEDSV_RETURN_IF_ERROR(LoadFactorPair(in, &factors));
  }
  int32_t spill_rounds = -1;
  uint64_t spill_bytes = 0;
  if (config_.spill.enabled) {
    COMFEDSV_RETURN_IF_ERROR(in->I32(&spill_rounds));
    COMFEDSV_RETURN_IF_ERROR(in->U64(&spill_bytes));
    if (spill_rounds < 0 || spill_rounds > rounds) {
      return Status::DataLoss(
          "corrupt engine state: spill position out of range");
    }
  }
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));

  rounds_consumed_ = rounds;
  test_loss_history_ = std::move(history);
  if (has_factors != 0) {
    factors_ = std::move(factors);
  } else {
    factors_.reset();
  }
  // Snapshot caches are not serialized: the first Snapshot() after a
  // restore re-solves, warm from the restored factors.
  last_output_.reset();
  last_solve_round_ = -1;
  // Realign the spill log lazily: dropping the writer makes the next
  // spilled round re-open with OpenForAppend(rounds_consumed_), which
  // truncates whatever the crashed run appended past this state. The
  // recorded position lets that re-open verify byte-exactness.
  spill_writer_.reset();
  restored_spill_rounds_ = spill_rounds;
  restored_spill_bytes_ = spill_bytes;
  return Status::Ok();
}

Status StreamingValuationEngine::SaveCheckpoint(
    CheckpointManager* manager, const FedAvgTrainer* trainer) {
  COMFEDSV_CHECK(manager != nullptr);
  COMFEDSV_RETURN_IF_ERROR(request_status_);
  // Durability order: the log first, then the checkpoint that records
  // its position — a checkpoint must never reference log bytes that are
  // not on disk. A failed log sync fails the save (retried next time);
  // the engine's in-memory state is untouched either way.
  if (config_.spill.enabled && spill_writer_ != nullptr) {
    Status synced = SyncSpill();
    if (!synced.ok()) {
      ++health_.checkpoint_failures;
      return synced;
    }
  }
  Status saved;
  if (trainer != nullptr) {
    saved = manager->Write(
        ChunkTag::kValuationCheckpoint,
        SerializeValuationCheckpoint(
            ValuationFingerprint(*trainer, config_.request), *trainer,
            fedsv_.get(), comfedsv_.get(), ground_truth_.get()));
  } else {
    BinaryWriter payload;
    SaveState(&payload);
    saved = manager->Write(ChunkTag::kStreamingEngineState, payload.buffer());
  }
  if (!saved.ok()) return Degrade(&health_.checkpoint_failures, saved);
  MarkDurable();
  return saved;
}

Status StreamingValuationEngine::RestoreCheckpoint(CheckpointManager* manager,
                                                   FedAvgTrainer* trainer) {
  COMFEDSV_CHECK(manager != nullptr);
  COMFEDSV_RETURN_IF_ERROR(request_status_);
  // Startup sweep: clear `.tmp` debris a previous crash left behind. A
  // failed sweep is not fatal — stale temps are inert.
  health_.orphans_swept = manager->SweepOrphans().value_or(0);
  const uint64_t fingerprint =
      trainer != nullptr ? ValuationFingerprint(*trainer, config_.request)
                         : 0;
  Result<CheckpointManager::LoadInfo> loaded = manager->Load(
      trainer != nullptr ? ChunkTag::kValuationCheckpoint
                         : ChunkTag::kStreamingEngineState,
      [&](std::string_view payload, uint64_t /*sequence*/) {
        if (trainer != nullptr) {
          return RestoreValuationCheckpoint(payload, fingerprint, trainer,
                                            fedsv_.get(), comfedsv_.get(),
                                            ground_truth_.get());
        }
        BinaryReader reader(payload);
        return RestoreState(&reader);
      });
  if (!loaded.ok()) return loaded.status();
  if (trainer != nullptr) {
    // The trainer checkpoint holds the evaluator states but no engine
    // section: the consumed prefix is the trainer's, no factors are
    // cached, and the spill log realigns by truncation alone.
    rounds_consumed_ = trainer->next_round();
    test_loss_history_ = trainer->SaveState().test_loss_history;
    factors_.reset();
    last_output_.reset();
    last_solve_round_ = -1;
    spill_writer_.reset();
    restored_spill_rounds_ = -1;
  }
  health_.quarantined_on_resume = loaded.value().quarantined;
  health_.resumed_sequence = loaded.value().sequence;
  MarkDurable();
  return Status::Ok();
}

}  // namespace comfedsv
