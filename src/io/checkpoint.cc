#include "io/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace comfedsv {
namespace {

// Shape fields are written as u64 but must survive the round trip
// through the types' int/size_t fields; caps keep a corrupt shape from
// overflowing int arithmetic downstream.
constexpr uint64_t kMaxDim = std::numeric_limits<int32_t>::max();

Status CheckNonNegative(int64_t v, const char* what) {
  if (v < 0) {
    return Status::DataLoss(std::string(what) +
                                   " must be non-negative");
  }
  return Status::Ok();
}

void SaveDoubleSpan(const double* data, uint64_t count, BinaryWriter* out) {
  out->Reserve((count + 1) * 8);
  out->U64(count);
  for (uint64_t i = 0; i < count; ++i) out->F64(data[i]);
}

Status LoadDoubleSpan(BinaryReader* in, std::vector<double>* values) {
  uint64_t count = 0;
  COMFEDSV_RETURN_IF_ERROR(in->Count(8, &count));
  values->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    COMFEDSV_RETURN_IF_ERROR(in->F64(&(*values)[i]));
  }
  return Status::Ok();
}

void SaveInt64Span(const std::vector<int64_t>& values, BinaryWriter* out) {
  out->Reserve((values.size() + 1) * 8);
  out->U64(values.size());
  for (int64_t v : values) out->I64(v);
}

Status LoadInt64Span(BinaryReader* in, std::vector<int64_t>* values,
                     const char* what) {
  uint64_t count = 0;
  COMFEDSV_RETURN_IF_ERROR(in->Count(8, &count));
  values->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    COMFEDSV_RETURN_IF_ERROR(in->I64(&(*values)[i]));
    COMFEDSV_RETURN_IF_ERROR(CheckNonNegative((*values)[i], what));
  }
  return Status::Ok();
}

void SaveClientSet(const std::vector<int>& clients, BinaryWriter* out) {
  out->U64(clients.size());
  for (int client : clients) out->I32(client);
}

// Loads a sorted, strictly increasing client set bounded by
// `num_clients`; `what` names the set in error messages.
Status LoadClientSet(BinaryReader* in, uint64_t num_clients,
                     const char* what, std::vector<int>* clients) {
  uint64_t count = 0;
  COMFEDSV_RETURN_IF_ERROR(in->Count(4, &count));
  if (count > num_clients) {
    return Status::DataLoss(std::string("corrupt ") + what +
                                   ": more entries than clients");
  }
  clients->resize(count);
  int prev = -1;
  for (uint64_t i = 0; i < count; ++i) {
    COMFEDSV_RETURN_IF_ERROR(in->I32(&(*clients)[i]));
    if ((*clients)[i] <= prev ||
        (*clients)[i] >= static_cast<int>(num_clients)) {
      return Status::DataLoss(std::string("corrupt ") + what +
                                     ": set not sorted in range");
    }
    prev = (*clients)[i];
  }
  return Status::Ok();
}

void SaveQuarantineReport(const QuarantineReport& q, BinaryWriter* out) {
  SaveInt64Span(q.rejected, out);
  SaveInt64Span(q.clipped, out);
  SaveInt64Span(q.quarantine_drops, out);
  out->I64(q.rounds_degraded);
  out->I64(q.rounds_fully_rejected);
}

Status LoadQuarantineReport(BinaryReader* in, QuarantineReport* q) {
  QuarantineReport loaded;
  COMFEDSV_RETURN_IF_ERROR(
      LoadInt64Span(in, &loaded.rejected, "quarantine rejection count"));
  COMFEDSV_RETURN_IF_ERROR(
      LoadInt64Span(in, &loaded.clipped, "quarantine clip count"));
  COMFEDSV_RETURN_IF_ERROR(LoadInt64Span(in, &loaded.quarantine_drops,
                                         "quarantine drop count"));
  if (loaded.clipped.size() != loaded.rejected.size() ||
      loaded.quarantine_drops.size() != loaded.rejected.size()) {
    return Status::DataLoss(
        "corrupt quarantine report: counter lengths differ");
  }
  COMFEDSV_RETURN_IF_ERROR(in->I64(&loaded.rounds_degraded));
  COMFEDSV_RETURN_IF_ERROR(
      CheckNonNegative(loaded.rounds_degraded, "rounds_degraded"));
  COMFEDSV_RETURN_IF_ERROR(in->I64(&loaded.rounds_fully_rejected));
  COMFEDSV_RETURN_IF_ERROR(CheckNonNegative(loaded.rounds_fully_rejected,
                                            "rounds_fully_rejected"));
  if (loaded.rounds_fully_rejected > loaded.rounds_degraded) {
    return Status::DataLoss(
        "corrupt quarantine report: fully-rejected exceeds degraded");
  }
  *q = loaded;
  return Status::Ok();
}

}  // namespace

void SaveVector(const Vector& v, BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kVector);
  SaveDoubleSpan(v.data(), v.size(), out);
  out->EndChunk(handle);
}

Status LoadVector(BinaryReader* in, Vector* v) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(in->BeginChunk(ChunkTag::kVector, &end));
  std::vector<double> values;
  COMFEDSV_RETURN_IF_ERROR(LoadDoubleSpan(in, &values));
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  *v = Vector(std::move(values));
  return Status::Ok();
}

void SaveMatrix(const Matrix& m, BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kMatrix);
  const size_t entries = m.rows() * m.cols();
  out->Reserve((entries + 2) * 8);
  out->U64(m.rows());
  out->U64(m.cols());
  for (size_t i = 0; i < entries; ++i) out->F64(m.data()[i]);
  out->EndChunk(handle);
}

Status LoadMatrix(BinaryReader* in, Matrix* m) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(in->BeginChunk(ChunkTag::kMatrix, &end));
  uint64_t rows = 0, cols = 0;
  COMFEDSV_RETURN_IF_ERROR(in->U64(&rows));
  COMFEDSV_RETURN_IF_ERROR(in->U64(&cols));
  if (rows > kMaxDim || cols > kMaxDim ||
      (cols > 0 && rows > in->remaining() / 8 / cols)) {
    return Status::OutOfRange("corrupt matrix shape: entries cannot fit");
  }
  Matrix loaded(rows, cols);
  for (size_t i = 0; i < loaded.rows() * loaded.cols(); ++i) {
    COMFEDSV_RETURN_IF_ERROR(in->F64(&loaded.data()[i]));
  }
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  *m = std::move(loaded);
  return Status::Ok();
}

void SaveRngState(const RngState& s, BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kRngState);
  for (uint64_t word : s.words) out->U64(word);
  out->U8(s.has_cached_gaussian ? 1 : 0);
  out->F64(s.cached_gaussian);
  out->EndChunk(handle);
}

Status LoadRngState(BinaryReader* in, RngState* s) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(in->BeginChunk(ChunkTag::kRngState, &end));
  RngState loaded;
  for (uint64_t& word : loaded.words) {
    COMFEDSV_RETURN_IF_ERROR(in->U64(&word));
  }
  uint8_t has_cached = 0;
  COMFEDSV_RETURN_IF_ERROR(in->U8(&has_cached));
  if (has_cached > 1) {
    return Status::DataLoss("corrupt rng state: bad gaussian flag");
  }
  loaded.has_cached_gaussian = has_cached != 0;
  COMFEDSV_RETURN_IF_ERROR(in->F64(&loaded.cached_gaussian));
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  if ((loaded.words[0] | loaded.words[1] | loaded.words[2] |
       loaded.words[3]) == 0) {
    return Status::DataLoss(
        "corrupt rng state: all-zero xoshiro state");
  }
  *s = loaded;
  return Status::Ok();
}

void SaveRoundRecord(const RoundRecord& r, BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kRoundRecord);
  out->I32(r.round);
  out->F64(r.test_loss_before);
  SaveVector(r.global_before, out);
  out->U64(r.local_models.size());
  for (const Vector& local : r.local_models) SaveVector(local, out);
  SaveClientSet(r.selected, out);
  SaveClientSet(r.rejected, out);
  SaveClientSet(r.dropped, out);
  out->EndChunk(handle);
}

Status LoadRoundRecord(BinaryReader* in, RoundRecord* r) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(in->BeginChunk(ChunkTag::kRoundRecord, &end));
  RoundRecord loaded;
  COMFEDSV_RETURN_IF_ERROR(in->I32(&loaded.round));
  COMFEDSV_RETURN_IF_ERROR(CheckNonNegative(loaded.round, "round"));
  COMFEDSV_RETURN_IF_ERROR(in->F64(&loaded.test_loss_before));
  COMFEDSV_RETURN_IF_ERROR(LoadVector(in, &loaded.global_before));
  uint64_t num_locals = 0;
  // A serialized Vector chunk costs at least its 12-byte header.
  COMFEDSV_RETURN_IF_ERROR(in->Count(12, &num_locals));
  loaded.local_models.resize(num_locals);
  for (uint64_t i = 0; i < num_locals; ++i) {
    COMFEDSV_RETURN_IF_ERROR(LoadVector(in, &loaded.local_models[i]));
    if (loaded.local_models[i].size() != loaded.global_before.size()) {
      return Status::DataLoss(
          "corrupt round record: local model size mismatch");
    }
  }
  COMFEDSV_RETURN_IF_ERROR(LoadClientSet(
      in, num_locals, "round record selected set", &loaded.selected));
  COMFEDSV_RETURN_IF_ERROR(LoadClientSet(
      in, num_locals, "round record rejected set", &loaded.rejected));
  COMFEDSV_RETURN_IF_ERROR(LoadClientSet(
      in, num_locals, "round record dropped set", &loaded.dropped));
  if (!std::includes(loaded.selected.begin(), loaded.selected.end(),
                     loaded.rejected.begin(), loaded.rejected.end())) {
    return Status::DataLoss(
        "corrupt round record: rejected set not a subset of selected");
  }
  std::vector<int> overlap;
  std::set_intersection(loaded.selected.begin(), loaded.selected.end(),
                        loaded.dropped.begin(), loaded.dropped.end(),
                        std::back_inserter(overlap));
  if (!overlap.empty()) {
    return Status::DataLoss(
        "corrupt round record: dropped set overlaps selected");
  }
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  *r = std::move(loaded);
  return Status::Ok();
}

void SaveInterner(const CoalitionInterner& interner, BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kCoalitionInterner);
  const int size = interner.size();
  const int universe =
      size > 0 ? interner.Get(0).universe_size() : 0;
  out->I32(universe);
  out->U64(static_cast<uint64_t>(size));
  for (int col = 0; col < size; ++col) {
    const std::vector<int> members = interner.Get(col).Members();
    out->U64(members.size());
    for (int member : members) out->I32(member);
  }
  out->EndChunk(handle);
}

Status LoadInterner(BinaryReader* in, CoalitionInterner* interner) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(
      in->BeginChunk(ChunkTag::kCoalitionInterner, &end));
  int32_t universe = 0;
  COMFEDSV_RETURN_IF_ERROR(in->I32(&universe));
  COMFEDSV_RETURN_IF_ERROR(CheckNonNegative(universe, "universe size"));
  uint64_t size = 0;
  // Each coalition costs at least its 8-byte member count.
  COMFEDSV_RETURN_IF_ERROR(in->Count(8, &size));
  CoalitionInterner loaded;
  for (uint64_t col = 0; col < size; ++col) {
    uint64_t num_members = 0;
    COMFEDSV_RETURN_IF_ERROR(in->Count(4, &num_members));
    if (num_members > static_cast<uint64_t>(universe)) {
      return Status::DataLoss(
          "corrupt interner: coalition larger than its universe");
    }
    Coalition c(universe);
    int prev = -1;
    for (uint64_t i = 0; i < num_members; ++i) {
      int32_t member = 0;
      COMFEDSV_RETURN_IF_ERROR(in->I32(&member));
      if (member <= prev || member >= universe) {
        return Status::DataLoss(
            "corrupt interner: members not sorted in range");
      }
      c.Add(member);
      prev = member;
    }
    if (loaded.Intern(c) != static_cast<int>(col)) {
      return Status::DataLoss(
          "corrupt interner: duplicate coalition breaks dense ids");
    }
  }
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  *interner = std::move(loaded);
  return Status::Ok();
}

void SaveFactorPair(const FactorPair& f, BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kFactorPair);
  SaveMatrix(f.w, out);
  SaveMatrix(f.h, out);
  out->EndChunk(handle);
}

Status LoadFactorPair(BinaryReader* in, FactorPair* f) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(in->BeginChunk(ChunkTag::kFactorPair, &end));
  FactorPair loaded;
  COMFEDSV_RETURN_IF_ERROR(LoadMatrix(in, &loaded.w));
  COMFEDSV_RETURN_IF_ERROR(LoadMatrix(in, &loaded.h));
  if (loaded.w.cols() != loaded.h.cols()) {
    return Status::DataLoss(
        "corrupt factor pair: W and H rank mismatch");
  }
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  *f = std::move(loaded);
  return Status::Ok();
}

void SaveTrainerState(const FedAvgTrainerState& s, BinaryWriter* out) {
  const size_t handle = out->BeginChunk(ChunkTag::kTrainerState);
  out->U64(s.config_fingerprint);
  out->I32(s.next_round);
  SaveVector(s.params, out);
  SaveDoubleSpan(s.test_loss_history.data(), s.test_loss_history.size(),
                 out);
  SaveRngState(s.select_rng, out);
  SaveQuarantineReport(s.quarantine, out);
  out->EndChunk(handle);
}

Status LoadTrainerState(BinaryReader* in, FedAvgTrainerState* s) {
  size_t end = 0;
  COMFEDSV_RETURN_IF_ERROR(in->BeginChunk(ChunkTag::kTrainerState, &end));
  FedAvgTrainerState loaded;
  COMFEDSV_RETURN_IF_ERROR(in->U64(&loaded.config_fingerprint));
  COMFEDSV_RETURN_IF_ERROR(in->I32(&loaded.next_round));
  COMFEDSV_RETURN_IF_ERROR(
      CheckNonNegative(loaded.next_round, "next_round"));
  COMFEDSV_RETURN_IF_ERROR(LoadVector(in, &loaded.params));
  COMFEDSV_RETURN_IF_ERROR(LoadDoubleSpan(in, &loaded.test_loss_history));
  COMFEDSV_RETURN_IF_ERROR(LoadRngState(in, &loaded.select_rng));
  COMFEDSV_RETURN_IF_ERROR(LoadQuarantineReport(in, &loaded.quarantine));
  COMFEDSV_RETURN_IF_ERROR(in->EndChunk(end));
  if (loaded.test_loss_history.size() !=
      static_cast<size_t>(loaded.next_round)) {
    return Status::DataLoss(
        "corrupt trainer state: loss history length mismatch");
  }
  *s = std::move(loaded);
  return Status::Ok();
}

}  // namespace comfedsv
