// Round-trip (Save/Load) serialization of the library's domain types on
// top of the chunked binary format in io/serialize.h.
//
// Contract: Save* writes one complete chunk; Load* validates the chunk
// tag/length, every structural invariant of the type (shape consistency,
// client sets sorted and in range, dense interner ids), and returns an
// error Status on any violation — a loader never CHECK-crashes on
// malformed bytes and never hands back an object that would fail the
// type's own constructor checks.
//
// Composite checkpoint state (whole-pipeline ValuationCheckpoint,
// StreamingValuationEngine state) lives one layer up in
// core/checkpointing.h; this header covers the reusable building blocks.
#ifndef COMFEDSV_IO_CHECKPOINT_H_
#define COMFEDSV_IO_CHECKPOINT_H_

#include "common/rng.h"
#include "common/status.h"
#include "completion/interner.h"
#include "completion/solver.h"
#include "fl/fedavg.h"
#include "fl/round_record.h"
#include "io/serialize.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace comfedsv {

void SaveVector(const Vector& v, BinaryWriter* out);
Status LoadVector(BinaryReader* in, Vector* v);

void SaveMatrix(const Matrix& m, BinaryWriter* out);
Status LoadMatrix(BinaryReader* in, Matrix* m);

void SaveRngState(const RngState& s, BinaryWriter* out);
Status LoadRngState(BinaryReader* in, RngState* s);

void SaveRoundRecord(const RoundRecord& r, BinaryWriter* out);
Status LoadRoundRecord(BinaryReader* in, RoundRecord* r);

/// Columns are stored in id order, so reloading by re-interning yields
/// the identical bijection.
void SaveInterner(const CoalitionInterner& interner, BinaryWriter* out);
Status LoadInterner(BinaryReader* in, CoalitionInterner* interner);

void SaveFactorPair(const FactorPair& f, BinaryWriter* out);
Status LoadFactorPair(BinaryReader* in, FactorPair* f);

/// Mid-training trainer state (FedAvgTrainer::SaveState/RestoreState).
void SaveTrainerState(const FedAvgTrainerState& s, BinaryWriter* out);
Status LoadTrainerState(BinaryReader* in, FedAvgTrainerState* s);

}  // namespace comfedsv

#endif  // COMFEDSV_IO_CHECKPOINT_H_
