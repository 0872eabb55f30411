// Versioned, endian-stable binary serialization: the byte-level layer of
// the checkpoint format (see io/checkpoint.h for the per-type
// serializers and README.md "Checkpointing & streaming valuation" for
// the on-disk layout).
//
// Design rules:
//   * Everything on disk is little-endian, composed and decomposed with
//     explicit byte shifts — a checkpoint written on any host loads on
//     any other.
//   * Every object is framed as a *chunk*: u32 type tag, u64 payload
//     length, payload. Nested objects nest chunks. Readers validate the
//     tag, bound the payload against the remaining bytes, and check that
//     parsing consumed exactly the declared length.
//   * A checkpoint *file* adds a fixed header — magic, format version,
//     root chunk tag, payload length, FNV-1a checksum — so truncation,
//     version skew, and byte corruption are all detected up front and
//     reported as error Status (never a crash, never silently loaded
//     garbage).
//   * Readers return Status for every malformed input; COMFEDSV_CHECK is
//     reserved for programmer errors on the write side.
#ifndef COMFEDSV_IO_SERIALIZE_H_
#define COMFEDSV_IO_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace comfedsv {

class FileEnv;

/// First four bytes of every checkpoint file: "CFSV".
inline constexpr uint32_t kCheckpointMagic = 0x56534643u;
/// Format version written by this build; readers reject any other.
/// v2: RoundRecord gained rejected/dropped client sets; trainer state
/// and training result gained the aggregation-guard QuarantineReport.
/// v3: the header gained a u64 sequence number (monotonic per
/// checkpoint stream, used by CheckpointManager generation rotation)
/// and the checksum now covers the header prefix as well as the
/// payload, so corruption of any header field is detected.
/// v4: every evaluator state chunk carries its UtilityStats cost
/// counters in place of a loss-call total (and, in the recorder states,
/// a wall-clock time), so checkpoint bytes depend only on the run.
/// v5: UtilityStats is three counts (loss calls, batch passes, memo
/// hits), and the sampled-recorder state chunk has no optional tail.
inline constexpr uint32_t kCheckpointVersion = 5;

/// Chunk type tags. Stable on disk — append, never renumber.
enum class ChunkTag : uint32_t {
  kVector = 1,
  kMatrix = 2,
  // 3 (Dataset), 6 (TrainingResult) and 8 (ObservationSet) are retired;
  // keep them reserved.
  kRngState = 4,
  kRoundRecord = 5,
  kCoalitionInterner = 7,
  kFactorPair = 9,
  kTrainerState = 10,
  kFedSvState = 11,
  kFullRecorderState = 12,
  kObservedRecorderState = 13,
  kSampledRecorderState = 14,
  kValuationCheckpoint = 15,
  kStreamingEngineState = 16,
  kRoundLogIndex = 17,
};

/// Appends little-endian primitives and length-framed chunks to an
/// in-memory buffer. Writing cannot fail (allocation aside), so the
/// write API returns void.
class BinaryWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);

  /// Writes the chunk header (tag + u64 length placeholder) and returns
  /// a handle for EndChunk, which patches the real payload length.
  size_t BeginChunk(ChunkTag tag);
  void EndChunk(size_t handle);

  /// Pre-grows the buffer by `additional` bytes — serializers call this
  /// before writing large spans (checkpoints re-serialize the full
  /// accumulated state every cadence save, so reallocation churn adds
  /// up).
  void Reserve(size_t additional) { out_.reserve(out_.size() + additional); }

  const std::string& buffer() const { return out_; }
  size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

/// Reads little-endian primitives and chunks from a byte buffer. Every
/// read is bounds-checked and returns an error Status on truncation; the
/// reader never throws and never reads out of bounds. The reader does
/// not own the buffer.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status I32(int32_t* v);
  Status I64(int64_t* v);
  Status F64(double* v);

  /// Reads and validates a chunk header: the tag must equal `expected`
  /// and the declared payload length must fit in the remaining bytes.
  /// On success `*end` is the buffer position one past the chunk.
  Status BeginChunk(ChunkTag expected, size_t* end);
  /// Validates that parsing consumed the chunk exactly: the current
  /// position must equal `end` from the matching BeginChunk.
  Status EndChunk(size_t end);

  /// Reads a u64 element count for an array of `element_size`-byte
  /// elements and rejects counts whose payload could not possibly fit in
  /// the remaining bytes — so a corrupted length field fails cleanly
  /// instead of driving a multi-gigabyte allocation.
  Status Count(size_t element_size, uint64_t* count);

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// FNV-1a 64-bit checksum (the file-header integrity check). Pass a
/// previous return value as `seed` to checksum a discontiguous span.
uint64_t Fnv1a64(std::string_view bytes,
                 uint64_t seed = 0xcbf29ce484222325ULL);

/// Serializes `payload` (the body of a root chunk with tag `root_tag`)
/// into the checkpoint file container: header (magic, version, tag,
/// length, sequence, checksum) + payload, written to `path + ".tmp"`
/// and renamed over `path` so a crash mid-write never leaves a
/// half-written checkpoint behind. Every failure path removes its
/// `.tmp`; a directory-fsync failure after the rename is surfaced as
/// non-OK (the rename may not be durable — callers treat the write as
/// failed and retry).
///
/// `sequence` is stored in the header and returned by
/// ReadCheckpointFile — CheckpointManager continues its generation
/// sequence from it. All I/O goes through `env` (nullptr = the real
/// filesystem).
Status WriteCheckpointFile(const std::string& path, ChunkTag root_tag,
                           std::string_view payload, uint64_t sequence = 0,
                           FileEnv* env = nullptr);

/// Reads a checkpoint file and validates magic, version, root tag,
/// payload length, and checksum. Returns the payload bytes (the root
/// chunk body) on success and, when `sequence` is non-null, the
/// header's sequence number.
///
/// Error codes follow the salvage contract:
///   * NotFound           — no file at `path`
///   * DataLoss           — truncation, bad magic, or checksum mismatch
///   * FailedPrecondition — format version skew
///   * InvalidArgument    — wrong root tag, or `path` is a directory
///   * Unavailable        — transient read failure
Result<std::string> ReadCheckpointFile(const std::string& path,
                                       ChunkTag expected_root_tag,
                                       FileEnv* env = nullptr,
                                       uint64_t* sequence = nullptr);

}  // namespace comfedsv

#endif  // COMFEDSV_IO_SERIALIZE_H_
