#include "io/checkpoint_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <thread>
#include <utility>

#include "io/file_env.h"

namespace comfedsv {
namespace {

constexpr int kSequenceDigits = 8;
constexpr int64_t kMaxBackoffMs = 10'000;

/// Parses the `<digits>` of a `<base>.<digits>` generation file name.
/// Returns false for anything else (`path` itself, `.tmp`, `.corrupt`).
bool ParseGenerationSuffix(const std::string& name, const std::string& base,
                           uint64_t* sequence) {
  if (name.size() <= base.size() + 1 || name.compare(0, base.size(), base) ||
      name[base.size()] != '.') {
    return false;
  }
  uint64_t seq = 0;
  for (size_t i = base.size() + 1; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  *sequence = seq;
  return true;
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

std::string BaseOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// Only DataLoss (corrupt bytes) quarantines and falls back to an older
// generation. FailedPrecondition (version skew, fingerprint mismatch)
// and InvalidArgument (wrong root tag) mean the file is intact but
// belongs to a different run or build — propagating preserves the "no
// silent restart under the wrong inputs" contract, and the file itself
// is evidence worth keeping in place.
bool IsSalvageCode(StatusCode code) {
  return code == StatusCode::kDataLoss;
}

}  // namespace

Status ValidateCheckpointManagerOptions(
    const CheckpointManagerOptions& options) {
  auto bad = [](const char* field, const char* rule, int got) {
    return Status::InvalidArgument(std::string(field) + " must be " + rule +
                                   ", got " + std::to_string(got));
  };
  if (options.keep_generations < 1) {
    return bad("keep_generations", ">= 1", options.keep_generations);
  }
  if (options.max_retries < 0) {
    return bad("max_retries", ">= 0", options.max_retries);
  }
  if (options.retry_backoff_ms < 0) {
    return bad("retry_backoff_ms", ">= 0", options.retry_backoff_ms);
  }
  return Status::Ok();
}

CheckpointManager::CheckpointManager(std::string path,
                                     CheckpointManagerOptions options)
    : path_(std::move(path)),
      options_(std::move(options)),
      options_status_(ValidateCheckpointManagerOptions(options_)) {
  env_ = options_.env != nullptr ? options_.env : FileEnv::Real();
  if (!options_.sleeper) {
    options_.sleeper = [](int ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
}

std::string CheckpointManager::GenerationPath(uint64_t sequence) const {
  std::ostringstream out;
  out << path_ << '.' << std::setw(kSequenceDigits) << std::setfill('0')
      << sequence;
  return out.str();
}

std::vector<std::pair<uint64_t, std::string>>
CheckpointManager::ListGenerations() const {
  std::vector<std::pair<uint64_t, std::string>> generations;
  const std::string dir = DirOf(path_);
  const std::string base = BaseOf(path_);
  auto entries = env_->ListDir(dir);
  if (!entries.ok()) return generations;
  for (const std::string& name : entries.value()) {
    uint64_t seq = 0;
    if (ParseGenerationSuffix(name, base, &seq)) {
      generations.emplace_back(seq, dir + "/" + name);
    }
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

void CheckpointManager::ContinueSequence(
    const std::vector<std::pair<uint64_t, std::string>>& generations) {
  sequence_initialized_ = true;
  if (generations.empty()) return;
  next_sequence_ = std::max(next_sequence_, generations.back().first + 1);
}

void CheckpointManager::Backoff(int attempt) {
  // Cap before shifting: a long retry budget would overflow the shift.
  int64_t ms = options_.retry_backoff_ms;
  for (int k = 0; k < attempt && ms < kMaxBackoffMs; ++k) ms <<= 1;
  if (ms > 0) options_.sleeper(static_cast<int>(std::min(ms, kMaxBackoffMs)));
}

Status CheckpointManager::Write(ChunkTag root_tag, std::string_view payload) {
  COMFEDSV_RETURN_IF_ERROR(options_status_);
  if (!sequence_initialized_) ContinueSequence(ListGenerations());
  const uint64_t sequence = next_sequence_;
  const std::string target = GenerationPath(sequence);
  Status st;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++write_retries_;
      Backoff(attempt - 1);
    }
    st = WriteCheckpointFile(target, root_tag, payload, sequence, env_);
    if (st.ok()) break;
    if (st.code() != StatusCode::kUnavailable) return st;
  }
  if (!st.ok()) return st;
  next_sequence_ = sequence + 1;
  Prune();
  return Status::Ok();
}

void CheckpointManager::Prune() {
  auto generations = ListGenerations();  // oldest first
  const size_t keep = static_cast<size_t>(options_.keep_generations);
  for (size_t i = 0; i + keep < generations.size(); ++i) {
    // Never delete the generation the last Load restored from: after a
    // salvage fell back past corrupt husks (or keep_generations was
    // lowered between runs), it may be the only state this run is
    // built on until enough fresh generations are durable.
    if (generations[i].second == restored_file_) continue;
    // A failed prune never fails the checkpoint write — the new
    // generation is durable; we just retained more history than asked.
    (void)env_->Remove(generations[i].second);
  }
}

Status CheckpointManager::Quarantine(const std::string& file) {
  ++quarantined_total_;
  return env_->Rename(file, file + ".corrupt");
}

Result<CheckpointManager::LoadInfo> CheckpointManager::Load(
    ChunkTag root_tag, const Restorer& restore) {
  COMFEDSV_RETURN_IF_ERROR(options_status_);
  if (env_->Exists(path_)) {
    return Status::FailedPrecondition(
        "'" + path_ + "' holds a single-file checkpoint, a layout this "
        "build has retired (checkpoints live in '" + path_ +
        ".<seq>' generations); move it aside to start a new run");
  }
  const auto generations = ListGenerations();
  ContinueSequence(generations);
  if (generations.empty()) {
    return Status::NotFound("no checkpoint at " + path_);
  }
  int quarantined = 0;
  Status last_error;
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const std::string& file = it->second;
    uint64_t sequence = 0;
    Result<std::string> payload = Status::Internal("unread");
    for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
      if (attempt > 0) Backoff(attempt - 1);
      payload = ReadCheckpointFile(file, root_tag, env_, &sequence);
      if (payload.ok() ||
          payload.status().code() != StatusCode::kUnavailable) {
        break;
      }
    }
    if (!payload.ok() && payload.status().code() == StatusCode::kNotFound) {
      continue;  // pruned under us
    }
    const Status st = !payload.ok() ? payload.status()
                      : restore     ? restore(payload.value(), sequence)
                                    : Status::Ok();
    if (!st.ok()) {
      if (!IsSalvageCode(st.code())) return st;  // env down, other run
      last_error = st;
      COMFEDSV_RETURN_IF_ERROR(Quarantine(file));
      ++quarantined;
      continue;
    }
    next_sequence_ = std::max(next_sequence_, sequence + 1);
    restored_file_ = file;
    LoadInfo info;
    info.payload = std::move(payload).value();
    info.sequence = sequence;
    info.file = file;
    info.quarantined = quarantined;
    return info;
  }
  return Status::DataLoss(
      "every checkpoint generation at " + path_ + " failed validation (" +
      std::to_string(quarantined) + " quarantined; last error: " +
      last_error.ToString() + ")");
}

Result<int> CheckpointManager::SweepOrphans() {
  COMFEDSV_RETURN_IF_ERROR(options_status_);
  const std::string dir = DirOf(path_);
  const std::string base = BaseOf(path_);
  auto entries = env_->ListDir(dir);
  if (!entries.ok()) {
    if (entries.status().code() == StatusCode::kNotFound) return 0;
    return entries.status();
  }
  int swept = 0;
  for (const std::string& name : entries.value()) {
    // `<base>.<seq>.tmp` only — a sweep must never eat another
    // stream's temp files.
    uint64_t seq = 0;
    if (!name.ends_with(".tmp") ||
        !ParseGenerationSuffix(name.substr(0, name.size() - 4), base, &seq)) {
      continue;
    }
    COMFEDSV_RETURN_IF_ERROR(env_->Remove(dir + "/" + name));
    ++swept;
  }
  return swept;
}

}  // namespace comfedsv
