// CheckpointManager: durable, self-healing checkpoint storage.
//
//   * Rotated generations — each Write() lands in its own file
//     `path.<seq>` (8-digit zero-padded, monotonic sequence also
//     recorded in the file header), then the oldest files beyond
//     keep_generations are pruned. Nothing is written at `path` itself:
//     a file there is a single-file checkpoint from an older build, and
//     Load() refuses it in place rather than restart beside it.
//   * Transient-error retry — writes and reads that fail Unavailable
//     (EIO, ENOSPC, interrupted) are retried up to max_retries times
//     with deterministic exponential backoff through an injectable
//     sleeper, so tests replay retry schedules without wall-clock time.
//   * Startup sweep — SweepOrphans() removes `path.<seq>.tmp` debris
//     left by a crash mid-write.
//   * Salvage on load — Load() walks generations newest-first; a file
//     failing checksum/validation (DataLoss) is quarantined (renamed
//     `*.corrupt`, never deleted — it is evidence) and the next-older
//     generation is tried, so "newest generation that actually restores"
//     wins. Only DataLoss salvages: FailedPrecondition (version skew,
//     fingerprint mismatch) and InvalidArgument (wrong root tag) mean an
//     intact file from a different run or build, and propagate — never a
//     silent restart under the wrong inputs.
//
// All I/O goes through a FileEnv, so the crash-sweep harness drives the
// whole stack with injected faults (see io/file_env.h).
#ifndef COMFEDSV_IO_CHECKPOINT_MANAGER_H_
#define COMFEDSV_IO_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/serialize.h"

namespace comfedsv {

class FileEnv;

struct CheckpointManagerOptions {
  /// How many generations to retain (>= 1). A save writes the new
  /// generation, then prunes the oldest beyond the window, so a crash
  /// in between leaves one extra generation (Load picks the newer). The
  /// generation a Load restored from is never pruned by that manager:
  /// a resumed keep-1 run ends with two files.
  int keep_generations = 1;
  /// Extra attempts after a transient (Unavailable) failure, per
  /// operation (>= 0). 0 disables retry.
  int max_retries = 2;
  /// Backoff before retry k (1-based) is `retry_backoff_ms << (k-1)`
  /// milliseconds, capped at 10 s — deterministic, no jitter (>= 0).
  int retry_backoff_ms = 5;
  /// Receives each backoff in ms. Defaults to sleeping; tests inject a
  /// recorder to assert the schedule without waiting it out.
  std::function<void(int)> sleeper;
  /// File system to operate on. nullptr = the real one.
  FileEnv* env = nullptr;
};

/// InvalidArgument naming the first out-of-range field of `options`:
/// keep_generations >= 1, max_retries >= 0, retry_backoff_ms >= 0.
Status ValidateCheckpointManagerOptions(
    const CheckpointManagerOptions& options);

class CheckpointManager {
 public:
  /// Validates a candidate payload during Load salvage. Returning
  /// DataLoss (corrupt stored state) quarantines the generation and
  /// falls back to an older one; any other non-OK status (fingerprint
  /// mismatch, version skew, environment failure) aborts the load. The
  /// callback may be invoked multiple times (once per candidate); a
  /// later successful candidate must fully overwrite any partial state
  /// a failed one left behind.
  using Restorer = std::function<Status(std::string_view payload,
                                        uint64_t sequence)>;

  struct LoadInfo {
    std::string payload;   ///< root chunk body of the loaded generation
    uint64_t sequence = 0; ///< its header sequence number
    std::string file;      ///< which file it came from
    int quarantined = 0;   ///< corrupt generations moved aside on the way
  };

  /// Invalid options (ValidateCheckpointManagerOptions) make Write,
  /// Load and SweepOrphans return that InvalidArgument.
  explicit CheckpointManager(std::string path,
                             CheckpointManagerOptions options = {});

  /// Writes the next generation (retrying transient failures), then
  /// prunes generations beyond the retention window. On success the
  /// sequence number advances; on failure on-disk state is unchanged
  /// except possibly a freshly-pruned tail.
  Status Write(ChunkTag root_tag, std::string_view payload);

  /// Loads the newest generation that passes the file checksum and (if
  /// given) `restore`. Corrupt generations encountered on the way are
  /// quarantined to `<file>.corrupt`. Returns NotFound when no
  /// checkpoint exists at all, DataLoss when generations existed but
  /// every one was corrupt, and FailedPrecondition, touching nothing,
  /// when a file exists at exactly `path`.
  Result<LoadInfo> Load(ChunkTag root_tag, const Restorer& restore = {});

  /// Removes orphaned `path.<seq>.tmp` files (a crash mid-write leaves
  /// at most one). Returns how many were swept. Call at startup, before
  /// Load.
  Result<int> SweepOrphans();

  /// Generation files on disk, oldest first (sequence, full path) —
  /// every one, whatever keep_generations is now, so state written
  /// under a higher retention stays resumable after it is lowered.
  std::vector<std::pair<uint64_t, std::string>> ListGenerations() const;

  const std::string& path() const { return path_; }
  uint64_t next_sequence() const { return next_sequence_; }

  /// Lifetime counters, for health reporting and the recovery bench.
  int64_t write_retries() const { return write_retries_; }
  int64_t quarantined_total() const { return quarantined_total_; }

 private:
  std::string GenerationPath(uint64_t sequence) const;
  /// Moves the next sequence past every generation in `generations`,
  /// so a Write never restarts at 1 or lands on an existing file.
  void ContinueSequence(
      const std::vector<std::pair<uint64_t, std::string>>& generations);
  Status Quarantine(const std::string& file);
  void Backoff(int attempt);
  void Prune();

  std::string path_;
  CheckpointManagerOptions options_;
  Status options_status_;
  FileEnv* env_;
  uint64_t next_sequence_ = 1;
  bool sequence_initialized_ = false;
  int64_t write_retries_ = 0;
  int64_t quarantined_total_ = 0;
  /// The file the last successful Load restored from. Prune never
  /// removes it: after a salvage fell back to an older generation,
  /// rotation (especially with a freshly-lowered keep_generations)
  /// must not delete the only state the run is built on.
  std::string restored_file_;
};

}  // namespace comfedsv

#endif  // COMFEDSV_IO_CHECKPOINT_MANAGER_H_
