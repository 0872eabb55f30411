// RoundLog: an append-only, crash-consistent store of RoundRecords.
//
// Valuation over a T-round trajectory normally holds per-round state in
// memory; for long runs the records themselves dominate (every client's
// local model, every round). The round log spills them to disk as
// training streams and serves them back with bounded resident memory:
//
//   * RoundLogWriter appends one self-checksummed frame per record and
//     periodically persists a footer index as an atomic side file
//     (`<path>.idx`, the io/serialize.h container around one
//     kRoundLogIndex chunk), fsynced via the usual tmp+rename path.
//   * RoundLogReader serves records by position with one
//     FileEnv::ReadFileRange per frame, so exactly one frame is resident
//     at a time and the fault-injecting environment covers every read.
//   * A stale or missing index is never fatal: Open() scans forward from
//     the last indexed byte (or from the header) and a torn tail frame —
//     a crash mid-append — is cleanly ignored. OpenForAppend walks the
//     frames with the same checksum-verified scan.
//   * OpenForAppend(keep_rounds) truncates the log to exactly
//     `keep_rounds` frames before continuing, so a run resumed from a
//     round-k checkpoint re-appends rounds k.. and the final file is
//     byte-identical to an uninterrupted run's.
//
// Encoding (per log, recorded in the data header):
//   * kNone — lossless: valuation from the log is bit-identical.
//   * kQuant16 — lossy: local-model deltas uniformly quantized to u16 on
//     a per-vector [min,max] grid. Valuation drift is bounded by the
//     grid step; tests/io_roundlog_test.cc bounds the drift and
//     perfbench's `io.log_compression_ratio` tracks the ratio.
//
// File layout (all little-endian):
//   data file:  header (24 B): u32 magic "CFRL", u32 version, u32
//               compression, u32 reserved, u64 FNV-1a of the first 16 B.
//               Then frames: u32 round, u32 encoding, u64 payload_len,
//               payload, u64 FNV-1a(frame header + payload).
//   index file: `<path>.idx` — WriteCheckpointFile container, root chunk
//               kRoundLogIndex: u64 indexed data size, u64 count, then
//               (u32 round, u64 offset, u64 length) per frame.
#ifndef COMFEDSV_IO_ROUND_LOG_H_
#define COMFEDSV_IO_ROUND_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fl/round_record.h"
#include "io/file_env.h"

namespace comfedsv {

/// First four bytes of a round-log data file: "CFRL".
inline constexpr uint32_t kRoundLogMagic = 0x4C524643u;
inline constexpr uint32_t kRoundLogVersion = 1;
/// Bytes before the first frame.
inline constexpr uint64_t kRoundLogHeaderSize = 24;

/// How record payloads are encoded on disk. Stable on disk — append,
/// never renumber.
enum class RoundLogCompression : uint32_t {
  /// The plain SaveRoundRecord chunk bytes. Lossless.
  kNone = 0,
  // 1 is reserved: the retired xor_delta encoding. A header or frame
  // carrying it is refused with FailedPrecondition.
  /// Local-model deltas quantized to u16 on a per-vector [min,max]
  /// grid. Lossy; everything else in the record stays exact.
  kQuant16 = 2,
};

struct RoundLogOptions {
  RoundLogCompression compression = RoundLogCompression::kNone;
  /// Persist the footer index every k-th append (and on every Sync()).
  /// Larger values amortize the index write; recovery scans the
  /// unindexed tail either way. Must be >= 1 (InvalidArgument otherwise).
  int index_every = 1;
  /// File system to operate on. nullptr = the real one.
  FileEnv* env = nullptr;
};

struct RoundLogReadOptions {
  /// File system to operate on. nullptr = the real one.
  FileEnv* env = nullptr;
};

/// Where one frame sits in the data file: a footer-index entry.
struct RoundLogFrame {
  uint32_t round = 0;
  uint64_t offset = 0;
  uint64_t length = 0;  // whole frame, header through checksum
};

/// Appends RoundRecords to a round log. Not thread-safe (one writer per
/// log; the trainer's round loop is sequential).
class RoundLogWriter {
 public:
  /// Creates (truncates) a fresh log at `path`. InvalidArgument when
  /// `options` are invalid.
  static Result<std::unique_ptr<RoundLogWriter>> Create(
      const std::string& path, RoundLogOptions options = {});

  /// Opens an existing log for appending after exactly `keep_rounds`
  /// frames, truncating any frames beyond (a crash may have appended
  /// rounds the resumed checkpoint never saw; dropping them keeps
  /// replay byte-identical). The truncation happens even when the log
  /// already ends at the boundary, so the io/truncate failpoint is
  /// exercised on every resume. DataLoss when fewer than `keep_rounds`
  /// intact frames exist, FailedPrecondition when the header's
  /// compression disagrees with `options` or is the retired xor_delta.
  static Result<std::unique_ptr<RoundLogWriter>> OpenForAppend(
      const std::string& path, int keep_rounds, RoundLogOptions options = {});

  /// Appends one record: frame bytes go through FileEnv::AppendFile and
  /// SyncFile, then the footer index per `index_every`. On failure the
  /// in-memory position is unchanged and the on-disk tail (possibly
  /// torn) is beyond the index — the next OpenForAppend truncates it.
  Status Append(const RoundRecord& record);

  /// fsyncs the data file and persists the footer index for everything
  /// appended so far.
  Status Sync();

  int rounds() const { return static_cast<int>(index_.size()); }
  uint64_t data_size() const { return data_size_; }
  /// Bytes the payloads appended through this writer would occupy under
  /// kNone encoding — the denominator of the compression ratio. Resets
  /// on OpenForAppend (pre-existing frames are not re-measured).
  uint64_t uncompressed_bytes() const { return uncompressed_bytes_; }
  const std::string& path() const { return path_; }

 private:
  RoundLogWriter(std::string path, RoundLogOptions options);
  Status WriteIndex();

  std::string path_;
  RoundLogOptions options_;
  FileEnv* env_;
  std::vector<RoundLogFrame> index_;
  uint64_t data_size_ = kRoundLogHeaderSize;
  uint64_t uncompressed_bytes_ = 0;
  int appends_since_index_ = 0;
  /// A failed append may have left torn frame bytes past data_size_;
  /// the next append truncates them off first.
  bool dirty_tail_ = false;
};

/// Random-access reader over a round log. Records are addressed by
/// position (0-based append order). Not thread-safe; give each thread
/// its own reader (they share the page cache).
class RoundLogReader {
 public:
  /// Opens the log: validates the data header, loads the footer index
  /// when present and intact (a corrupt index is ignored, not fatal —
  /// the data frames are self-checksummed), then scans forward from the
  /// last indexed byte to pick up frames appended since. A torn tail
  /// frame ends the scan cleanly.
  static Result<std::unique_ptr<RoundLogReader>> Open(
      const std::string& path, RoundLogReadOptions options = {});

  /// Number of intact records.
  int rounds() const { return static_cast<int>(index_.size()); }
  RoundLogCompression compression() const { return compression_; }

  /// Decodes record `pos` (0-based append order) into `*out`: one
  /// ReadFileRange of the whole frame, then the checksum check.
  Status Read(int pos, RoundRecord* out);

  /// Always 0: there is no mapped window to slide. Kept only so
  /// perfbench's `io.reader_remaps` counter still has a source.
  int64_t remaps() const { return 0; }
  /// Frames read from disk so far (every Read() is one range read).
  int64_t fallback_reads() const { return fallback_reads_; }
  uint64_t data_size() const { return data_size_; }

 private:
  RoundLogReader(std::string path, FileEnv* env);

  std::string path_;
  FileEnv* env_;
  RoundLogCompression compression_ = RoundLogCompression::kNone;
  std::vector<RoundLogFrame> index_;
  uint64_t data_size_ = 0;
  int64_t fallback_reads_ = 0;
};

/// Encodes `record` under `compression` (the frame payload bytes).
/// Exposed for tests and the bench; Append/Read use it internally.
std::string EncodeRoundRecordPayload(const RoundRecord& record,
                                     RoundLogCompression compression);
/// Decodes an EncodeRoundRecordPayload buffer. For kNone the result is
/// bit-identical to the encoded record.
Status DecodeRoundRecordPayload(std::string_view payload,
                                RoundLogCompression compression,
                                RoundRecord* out);

}  // namespace comfedsv

#endif  // COMFEDSV_IO_ROUND_LOG_H_
