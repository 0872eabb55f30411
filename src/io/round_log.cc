#include "io/round_log.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "io/checkpoint.h"
#include "io/serialize.h"

namespace comfedsv {
namespace {

/// Frame header: u32 round, u32 encoding, u64 payload length.
constexpr uint64_t kFrameHeaderSize = 16;
/// Trailing FNV-1a over the frame header + payload.
constexpr uint64_t kFrameTrailerSize = 8;
/// Bytes a frame adds around its payload.
constexpr uint64_t kFrameOverhead = kFrameHeaderSize + kFrameTrailerSize;

/// The retired xor_delta encoding's on-disk value (see
/// RoundLogCompression).
constexpr uint32_t kRetiredXorDelta = 1;

void PutU32(std::string* out, uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    out->push_back(static_cast<char>((v >> (8 * k)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int k = 0; k < 8; ++k) {
    out->push_back(static_cast<char>((v >> (8 * k)) & 0xFF));
  }
}

uint32_t GetU32(std::string_view bytes, size_t at) {
  uint32_t v = 0;
  for (int k = 3; k >= 0; --k) {
    v = (v << 8) | static_cast<uint8_t>(bytes[at + static_cast<size_t>(k)]);
  }
  return v;
}

uint64_t GetU64(std::string_view bytes, size_t at) {
  uint64_t v = 0;
  for (int k = 7; k >= 0; --k) {
    v = (v << 8) | static_cast<uint8_t>(bytes[at + static_cast<size_t>(k)]);
  }
  return v;
}

std::string RoundLogHeaderBytes(RoundLogCompression compression) {
  std::string header;
  PutU32(&header, kRoundLogMagic);
  PutU32(&header, kRoundLogVersion);
  PutU32(&header, static_cast<uint32_t>(compression));
  PutU32(&header, 0);  // reserved
  PutU64(&header, Fnv1a64(header));
  return header;
}

/// Validates an on-disk compression value, from a header or a frame.
Status CheckCompression(uint32_t mode) {
  if (mode == kRetiredXorDelta) {
    return Status::FailedPrecondition(
        "round log written with the retired xor_delta encoding");
  }
  if (mode != static_cast<uint32_t>(RoundLogCompression::kNone) &&
      mode != static_cast<uint32_t>(RoundLogCompression::kQuant16)) {
    return Status::DataLoss("round log has unknown compression mode");
  }
  return Status::Ok();
}

Status ParseRoundLogHeader(std::string_view bytes,
                           RoundLogCompression* compression) {
  if (bytes.size() < kRoundLogHeaderSize) {
    return Status::DataLoss("round log truncated inside the header");
  }
  if (GetU32(bytes, 0) != kRoundLogMagic) {
    return Status::DataLoss("round log has wrong magic");
  }
  if (GetU32(bytes, 4) != kRoundLogVersion) {
    return Status::FailedPrecondition("round log format version skew");
  }
  if (GetU64(bytes, 16) != Fnv1a64(bytes.substr(0, 16))) {
    return Status::DataLoss("round log header checksum mismatch");
  }
  const uint32_t mode = GetU32(bytes, 8);
  COMFEDSV_RETURN_IF_ERROR(CheckCompression(mode));
  *compression = static_cast<RoundLogCompression>(mode);
  return Status::Ok();
}

std::string BuildFrame(const RoundRecord& record, std::string_view payload,
                       RoundLogCompression enc) {
  std::string frame;
  frame.reserve(payload.size() + kFrameOverhead);
  PutU32(&frame, static_cast<uint32_t>(record.round));
  PutU32(&frame, static_cast<uint32_t>(enc));
  PutU64(&frame, payload.size());
  frame.append(payload);
  PutU64(&frame, Fnv1a64(frame));
  return frame;
}

/// Walks frames forward from `offset`, verifying each checksum, and
/// appends them to `*frames` until `max_frames` are listed, the file
/// ends, or a torn or corrupt frame (a crash mid-append) ends the
/// stream. Returns the offset just past the last intact frame. Only an
/// environment failure is an error; corruption just ends the scan.
Result<uint64_t> ScanFrames(FileEnv* env, const std::string& path,
                            uint64_t offset, uint64_t file_size,
                            size_t max_frames,
                            std::vector<RoundLogFrame>* frames) {
  while (frames->size() < max_frames && offset <= file_size &&
         file_size - offset >= kFrameOverhead) {
    Result<std::string> head =
        env->ReadFileRange(path, offset, kFrameHeaderSize);
    if (!head.ok()) return head.status();
    if (head.value().size() < kFrameHeaderSize) break;
    // Bound the length by what the file holds before adding anything to
    // it: a corrupt length near 2^64 would wrap the frame size.
    const uint64_t payload_len = GetU64(head.value(), 8);
    if (payload_len > file_size - offset - kFrameOverhead) break;
    Result<std::string> rest = env->ReadFileRange(
        path, offset + kFrameHeaderSize, payload_len + kFrameTrailerSize);
    if (!rest.ok()) return rest.status();
    const std::string_view body = rest.value();
    if (body.size() < payload_len + kFrameTrailerSize) break;
    if (GetU64(body, payload_len) !=
        Fnv1a64(body.substr(0, payload_len), Fnv1a64(head.value()))) {
      break;
    }
    frames->push_back(
        {GetU32(head.value(), 0), offset, payload_len + kFrameOverhead});
    offset += payload_len + kFrameOverhead;
  }
  return offset;
}

Status ValidateOptions(const RoundLogOptions& options) {
  if (options.index_every < 1) {
    return Status::InvalidArgument(
        "RoundLogOptions::index_every must be >= 1, got " +
        std::to_string(options.index_every));
  }
  return Status::Ok();
}

void SaveIntList(const std::vector<int>& list, BinaryWriter* out) {
  out->U64(list.size());
  for (int v : list) out->I32(v);
}

Status LoadIntList(BinaryReader* in, std::vector<int>* list) {
  uint64_t count = 0;
  COMFEDSV_RETURN_IF_ERROR(in->Count(4, &count));
  list->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    int32_t v = 0;
    COMFEDSV_RETURN_IF_ERROR(in->I32(&v));
    (*list)[static_cast<size_t>(i)] = v;
  }
  return Status::Ok();
}

/// Prelude of the kQuant16 encoding: everything in the record except
/// the local models, with global_before stored exact.
void SavePrelude(const RoundRecord& record, BinaryWriter* out) {
  out->I32(record.round);
  out->F64(record.test_loss_before);
  SaveVector(record.global_before, out);
  SaveIntList(record.selected, out);
  SaveIntList(record.rejected, out);
  SaveIntList(record.dropped, out);
  out->U64(record.local_models.size());
}

Status LoadPrelude(BinaryReader* in, RoundRecord* out, uint64_t* num_models) {
  COMFEDSV_RETURN_IF_ERROR(in->I32(&out->round));
  COMFEDSV_RETURN_IF_ERROR(in->F64(&out->test_loss_before));
  COMFEDSV_RETURN_IF_ERROR(LoadVector(in, &out->global_before));
  COMFEDSV_RETURN_IF_ERROR(LoadIntList(in, &out->selected));
  COMFEDSV_RETURN_IF_ERROR(LoadIntList(in, &out->rejected));
  COMFEDSV_RETURN_IF_ERROR(LoadIntList(in, &out->dropped));
  return in->Count(1, num_models);
}

std::string EncodeQuant16(const RoundRecord& record) {
  BinaryWriter out;
  SavePrelude(record, &out);
  const Vector& global = record.global_before;
  for (const Vector& local : record.local_models) {
    out.U64(local.size());
    double lo = 0.0, hi = 0.0;
    for (size_t j = 0; j < local.size(); ++j) {
      const double d = local[j] - (j < global.size() ? global[j] : 0.0);
      if (j == 0 || d < lo) lo = d;
      if (j == 0 || d > hi) hi = d;
    }
    out.F64(lo);
    out.F64(hi);
    const double span = hi - lo;
    for (size_t j = 0; j < local.size(); ++j) {
      const double d = local[j] - (j < global.size() ? global[j] : 0.0);
      uint32_t q = 0;
      if (span > 0.0) {
        const double scaled = (d - lo) / span * 65535.0;
        q = static_cast<uint32_t>(
            std::min(65535.0, std::max(0.0, scaled + 0.5)));
      }
      out.U8(static_cast<uint8_t>(q & 0xFF));
      out.U8(static_cast<uint8_t>((q >> 8) & 0xFF));
    }
  }
  return out.buffer();
}

Status DecodeQuant16(std::string_view payload, RoundRecord* out) {
  BinaryReader in(payload);
  uint64_t num_models = 0;
  COMFEDSV_RETURN_IF_ERROR(LoadPrelude(&in, out, &num_models));
  out->local_models.assign(static_cast<size_t>(num_models), Vector());
  const Vector& global = out->global_before;
  for (uint64_t m = 0; m < num_models; ++m) {
    uint64_t dim = 0;
    COMFEDSV_RETURN_IF_ERROR(in.Count(2, &dim));
    double lo = 0.0, hi = 0.0;
    COMFEDSV_RETURN_IF_ERROR(in.F64(&lo));
    COMFEDSV_RETURN_IF_ERROR(in.F64(&hi));
    const double span = hi - lo;
    Vector& local = out->local_models[static_cast<size_t>(m)];
    local.Resize(static_cast<size_t>(dim));
    for (uint64_t j = 0; j < dim; ++j) {
      uint8_t b0 = 0, b1 = 0;
      COMFEDSV_RETURN_IF_ERROR(in.U8(&b0));
      COMFEDSV_RETURN_IF_ERROR(in.U8(&b1));
      const uint32_t q = static_cast<uint32_t>(b0) |
                         (static_cast<uint32_t>(b1) << 8);
      const double d =
          span > 0.0 ? lo + static_cast<double>(q) / 65535.0 * span : lo;
      const size_t idx = static_cast<size_t>(j);
      local[idx] = (idx < global.size() ? global[idx] : 0.0) + d;
    }
  }
  if (in.remaining() != 0) {
    return Status::DataLoss("round log payload has trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeRoundRecordPayload(const RoundRecord& record,
                                     RoundLogCompression compression) {
  switch (compression) {
    case RoundLogCompression::kNone: {
      BinaryWriter out;
      SaveRoundRecord(record, &out);
      return out.buffer();
    }
    case RoundLogCompression::kQuant16:
      return EncodeQuant16(record);
  }
  COMFEDSV_CHECK(false);
  return {};
}

Status DecodeRoundRecordPayload(std::string_view payload,
                                RoundLogCompression compression,
                                RoundRecord* out) {
  *out = RoundRecord();
  switch (compression) {
    case RoundLogCompression::kNone: {
      BinaryReader in(payload);
      COMFEDSV_RETURN_IF_ERROR(LoadRoundRecord(&in, out));
      if (in.remaining() != 0) {
        return Status::DataLoss("round log payload has trailing bytes");
      }
      return Status::Ok();
    }
    case RoundLogCompression::kQuant16:
      return DecodeQuant16(payload, out);
  }
  // Not a current encoding: the retired value or garbage.
  return CheckCompression(static_cast<uint32_t>(compression));
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

RoundLogWriter::RoundLogWriter(std::string path, RoundLogOptions options)
    : path_(std::move(path)), options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : FileEnv::Real();
}

Result<std::unique_ptr<RoundLogWriter>> RoundLogWriter::Create(
    const std::string& path, RoundLogOptions options) {
  COMFEDSV_RETURN_IF_ERROR(ValidateOptions(options));
  std::unique_ptr<RoundLogWriter> writer(
      new RoundLogWriter(path, std::move(options)));
  COMFEDSV_RETURN_IF_ERROR(writer->env_->WriteFile(
      path, RoundLogHeaderBytes(writer->options_.compression)));
  COMFEDSV_RETURN_IF_ERROR(writer->env_->SyncFile(path));
  COMFEDSV_RETURN_IF_ERROR(writer->WriteIndex());
  return writer;
}

Result<std::unique_ptr<RoundLogWriter>> RoundLogWriter::OpenForAppend(
    const std::string& path, int keep_rounds, RoundLogOptions options) {
  COMFEDSV_CHECK_GE(keep_rounds, 0);
  COMFEDSV_RETURN_IF_ERROR(ValidateOptions(options));
  std::unique_ptr<RoundLogWriter> writer(
      new RoundLogWriter(path, std::move(options)));
  FileEnv* env = writer->env_;

  Result<std::string> header =
      env->ReadFileRange(path, 0, kRoundLogHeaderSize);
  if (!header.ok()) return header.status();
  RoundLogCompression stored = RoundLogCompression::kNone;
  COMFEDSV_RETURN_IF_ERROR(ParseRoundLogHeader(header.value(), &stored));
  if (stored != writer->options_.compression) {
    return Status::FailedPrecondition(
        "round log was written with a different compression mode");
  }

  // Walk the frames by checksum, not by index — the index may be stale
  // or torn, the frames are the truth.
  Result<uint64_t> file_size = env->FileSize(path);
  if (!file_size.ok()) return file_size.status();
  Result<uint64_t> end =
      ScanFrames(env, path, kRoundLogHeaderSize, file_size.value(),
                 static_cast<size_t>(keep_rounds), &writer->index_);
  if (!end.ok()) return end.status();
  if (static_cast<int>(writer->index_.size()) < keep_rounds) {
    return Status::DataLoss(
        "round log at " + path + " has only " +
        std::to_string(writer->index_.size()) + " intact frames, needed " +
        std::to_string(keep_rounds));
  }

  // Drop everything past the resume boundary — frames a crashed run
  // appended beyond its last durable checkpoint, or a torn tail. Done
  // unconditionally so resume-after-clean-shutdown exercises the same
  // path as resume-after-crash.
  COMFEDSV_RETURN_IF_ERROR(env->Truncate(path, end.value()));
  COMFEDSV_RETURN_IF_ERROR(env->SyncFile(path));
  writer->data_size_ = end.value();
  COMFEDSV_RETURN_IF_ERROR(writer->WriteIndex());
  return writer;
}

Status RoundLogWriter::Append(const RoundRecord& record) {
  if (dirty_tail_) {
    // A failed append may have left a torn frame; cut it off before
    // appending again so the frame stream stays parseable.
    COMFEDSV_RETURN_IF_ERROR(env_->Truncate(path_, data_size_));
    dirty_tail_ = false;
  }
  const std::string payload =
      EncodeRoundRecordPayload(record, options_.compression);
  const std::string frame =
      BuildFrame(record, payload, options_.compression);

  Status appended = env_->AppendFile(path_, frame);
  if (!appended.ok()) {
    dirty_tail_ = true;
    return appended;
  }
  Status synced = env_->SyncFile(path_);
  if (!synced.ok()) {
    dirty_tail_ = true;
    return synced;
  }

  index_.push_back({static_cast<uint32_t>(record.round), data_size_,
                    frame.size()});
  data_size_ += frame.size();
  uncompressed_bytes_ +=
      options_.compression == RoundLogCompression::kNone
          ? payload.size()
          : EncodeRoundRecordPayload(record, RoundLogCompression::kNone)
                .size();

  if (++appends_since_index_ >= options_.index_every) {
    return WriteIndex();
  }
  return Status::Ok();
}

Status RoundLogWriter::Sync() {
  if (dirty_tail_) {
    COMFEDSV_RETURN_IF_ERROR(env_->Truncate(path_, data_size_));
    dirty_tail_ = false;
  }
  COMFEDSV_RETURN_IF_ERROR(env_->SyncFile(path_));
  return WriteIndex();
}

Status RoundLogWriter::WriteIndex() {
  BinaryWriter out;
  out.U64(data_size_);
  out.U64(index_.size());
  for (const RoundLogFrame& entry : index_) {
    out.U32(entry.round);
    out.U64(entry.offset);
    out.U64(entry.length);
  }
  Status written =
      WriteCheckpointFile(path_ + ".idx", ChunkTag::kRoundLogIndex,
                          out.buffer(), index_.size(), env_);
  if (written.ok()) appends_since_index_ = 0;
  return written;
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

RoundLogReader::RoundLogReader(std::string path, FileEnv* env)
    : path_(std::move(path)),
      env_(env != nullptr ? env : FileEnv::Real()) {}

Result<std::unique_ptr<RoundLogReader>> RoundLogReader::Open(
    const std::string& path, RoundLogReadOptions options) {
  std::unique_ptr<RoundLogReader> reader(
      new RoundLogReader(path, options.env));
  FileEnv* env = reader->env_;

  Result<uint64_t> file_size = env->FileSize(path);
  if (!file_size.ok()) return file_size.status();
  reader->data_size_ = file_size.value();
  Result<std::string> header =
      env->ReadFileRange(path, 0, kRoundLogHeaderSize);
  if (!header.ok()) return header.status();
  COMFEDSV_RETURN_IF_ERROR(
      ParseRoundLogHeader(header.value(), &reader->compression_));

  // The footer index is an accelerator, not the truth: a missing or
  // corrupt one falls back to a full scan, a stale one is extended by
  // scanning the unindexed tail.
  uint64_t scan_from = kRoundLogHeaderSize;
  Result<std::string> idx =
      ReadCheckpointFile(path + ".idx", ChunkTag::kRoundLogIndex, env);
  if (idx.ok()) {
    BinaryReader in(idx.value());
    uint64_t indexed_size = 0;
    uint64_t count = 0;
    bool valid = in.U64(&indexed_size).ok() && in.Count(20, &count).ok() &&
                 indexed_size <= reader->data_size_;
    uint64_t expect_offset = kRoundLogHeaderSize;
    std::vector<RoundLogFrame> entries;
    for (uint64_t i = 0; valid && i < count; ++i) {
      RoundLogFrame entry;
      valid = in.U32(&entry.round).ok() && in.U64(&entry.offset).ok() &&
              in.U64(&entry.length).ok() && entry.offset == expect_offset &&
              entry.length >= kFrameOverhead &&
              entry.offset <= indexed_size &&
              entry.length <= indexed_size - entry.offset;
      if (valid) {
        expect_offset = entry.offset + entry.length;
        entries.push_back(entry);
      }
    }
    if (valid) {
      reader->index_ = std::move(entries);
      scan_from = expect_offset;
    }
  } else if (idx.status().code() == StatusCode::kUnavailable) {
    // A transient environment failure is not "no index"; surface it
    // rather than silently rescanning the whole log.
    return idx.status();
  }

  // Pick up the frames appended since the index was written.
  Result<uint64_t> end =
      ScanFrames(env, path, scan_from, reader->data_size_,
                 std::numeric_limits<size_t>::max(), &reader->index_);
  if (!end.ok()) return end.status();
  return reader;
}

Status RoundLogReader::Read(int pos, RoundRecord* out) {
  if (pos < 0 || pos >= rounds()) {
    return Status::OutOfRange("round log position " + std::to_string(pos) +
                              " not in [0, " + std::to_string(rounds()) +
                              ")");
  }
  const RoundLogFrame& entry = index_[static_cast<size_t>(pos)];
  Result<std::string> frame =
      env_->ReadFileRange(path_, entry.offset, entry.length);
  if (!frame.ok()) return frame.status();
  ++fallback_reads_;
  const std::string_view bytes = frame.value();
  if (bytes.size() < entry.length) {
    return Status::DataLoss("round log frame truncated under the reader");
  }
  // entry.length >= header + trailer (Open checked), so this cannot wrap.
  const uint64_t payload_len = GetU64(bytes, 8);
  if (payload_len != bytes.size() - kFrameOverhead) {
    return Status::DataLoss("round log frame length mismatch");
  }
  const uint64_t want = GetU64(bytes, kFrameHeaderSize + payload_len);
  const uint64_t got =
      Fnv1a64(bytes.substr(0, kFrameHeaderSize + payload_len));
  if (want != got) {
    return Status::DataLoss("round log frame checksum mismatch");
  }
  const uint32_t enc = GetU32(bytes, 4);
  COMFEDSV_RETURN_IF_ERROR(CheckCompression(enc));
  return DecodeRoundRecordPayload(
      bytes.substr(kFrameHeaderSize, payload_len),
      static_cast<RoundLogCompression>(enc), out);
}

}  // namespace comfedsv
