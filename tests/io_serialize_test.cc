// Serialization-layer robustness: round-trip property tests over
// randomized shapes/contents for every domain type, plus the malformed-
// input contract — truncated files, bad magic, wrong version, corrupted
// bytes, and semantically invalid fields must all return an error Status
// (never crash, never silently load garbage).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/checkpointing.h"
#include "io/checkpoint.h"
#include "io/serialize.h"

namespace comfedsv {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "comfedsv_io_test_" + name;
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = rng->NextDouble(-100.0, 100.0);
  }
  return m;
}

Vector RandomVector(size_t n, Rng* rng) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng->NextGaussian();
  return v;
}

TEST(BinaryFormatTest, PrimitivesAreLittleEndianOnDisk) {
  BinaryWriter w;
  w.U32(0x11223344u);
  w.U64(0x0102030405060708ULL);
  const std::string& b = w.buffer();
  ASSERT_EQ(b.size(), 12u);
  // Least significant byte first, regardless of host endianness.
  EXPECT_EQ(static_cast<uint8_t>(b[0]), 0x44);
  EXPECT_EQ(static_cast<uint8_t>(b[3]), 0x11);
  EXPECT_EQ(static_cast<uint8_t>(b[4]), 0x08);
  EXPECT_EQ(static_cast<uint8_t>(b[11]), 0x01);
}

TEST(BinaryFormatTest, PrimitiveRoundTripIncludingSpecialDoubles) {
  BinaryWriter w;
  w.U8(0xAB);
  w.I32(-123456);
  w.I64(-9876543210LL);
  w.F64(0.1);
  w.F64(-0.0);
  w.F64(std::numeric_limits<double>::infinity());
  w.F64(std::numeric_limits<double>::denorm_min());

  BinaryReader r(w.buffer());
  uint8_t u8 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  double d = 0.0;
  ASSERT_TRUE(r.U8(&u8).ok());
  EXPECT_EQ(u8, 0xAB);
  ASSERT_TRUE(r.I32(&i32).ok());
  EXPECT_EQ(i32, -123456);
  ASSERT_TRUE(r.I64(&i64).ok());
  EXPECT_EQ(i64, -9876543210LL);
  ASSERT_TRUE(r.F64(&d).ok());
  EXPECT_EQ(d, 0.1);
  ASSERT_TRUE(r.F64(&d).ok());
  EXPECT_EQ(d, -0.0);
  EXPECT_TRUE(std::signbit(d));
  ASSERT_TRUE(r.F64(&d).ok());
  EXPECT_EQ(d, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(r.F64(&d).ok());
  EXPECT_EQ(d, std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinaryFormatTest, TruncatedPrimitiveReadsReturnStatus) {
  BinaryWriter w;
  w.U32(7);
  for (size_t keep = 0; keep < 4; ++keep) {
    BinaryReader r(std::string_view(w.buffer()).substr(0, keep));
    uint32_t v = 0;
    EXPECT_EQ(r.U32(&v).code(), StatusCode::kOutOfRange) << keep;
  }
}

TEST(BinaryFormatTest, ChunkLengthBeyondBufferIsRejected) {
  BinaryWriter w;
  w.U32(static_cast<uint32_t>(ChunkTag::kVector));
  w.U64(1000);  // claims 1000 payload bytes; none follow
  BinaryReader r(w.buffer());
  size_t end = 0;
  EXPECT_EQ(r.BeginChunk(ChunkTag::kVector, &end).code(),
            StatusCode::kOutOfRange);
}

TEST(BinaryFormatTest, CorruptElementCountIsRejectedBeforeAllocation) {
  BinaryWriter w;
  w.U64(uint64_t{1} << 60);  // absurd count, nothing behind it
  BinaryReader r(w.buffer());
  uint64_t count = 0;
  EXPECT_EQ(r.Count(8, &count).code(), StatusCode::kOutOfRange);
}

TEST(RoundTripTest, VectorAndMatrixRandomizedShapes) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = rng.NextUint64(50);
    Vector v = RandomVector(n, &rng);
    BinaryWriter w;
    SaveVector(v, &w);
    BinaryReader r(w.buffer());
    Vector loaded;
    ASSERT_TRUE(LoadVector(&r, &loaded).ok());
    EXPECT_TRUE(v == loaded);

    const size_t rows = rng.NextUint64(12), cols = rng.NextUint64(12);
    Matrix m = RandomMatrix(rows, cols, &rng);
    BinaryWriter mw;
    SaveMatrix(m, &mw);
    BinaryReader mr(mw.buffer());
    Matrix mloaded;
    ASSERT_TRUE(LoadMatrix(&mr, &mloaded).ok());
    EXPECT_TRUE(m == mloaded);
  }
}

TEST(RoundTripTest, RngStateResumesTheSequenceBitForBit) {
  Rng rng(33);
  for (int i = 0; i < 17; ++i) rng.NextUint64();
  rng.NextGaussian();  // leaves a cached Box–Muller value behind

  BinaryWriter w;
  SaveRngState(rng.SaveState(), &w);
  BinaryReader r(w.buffer());
  RngState state;
  ASSERT_TRUE(LoadRngState(&r, &state).ok());
  Rng resumed = Rng::FromState(state);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.NextUint64(), resumed.NextUint64());
  }
  EXPECT_EQ(rng.NextGaussian(), resumed.NextGaussian());
}

TEST(RoundTripTest, RoundRecordPreservesEverything) {
  Rng rng(44);
  RoundRecord record;
  record.round = 7;
  record.test_loss_before = 1.25;
  record.global_before = RandomVector(9, &rng);
  for (int i = 0; i < 5; ++i) {
    record.local_models.push_back(RandomVector(9, &rng));
  }
  record.selected = {0, 2, 4};
  record.rejected = {2};
  record.dropped = {1, 3};

  BinaryWriter w;
  SaveRoundRecord(record, &w);
  BinaryReader r(w.buffer());
  RoundRecord loaded;
  ASSERT_TRUE(LoadRoundRecord(&r, &loaded).ok());
  EXPECT_EQ(loaded.round, record.round);
  EXPECT_EQ(loaded.test_loss_before, record.test_loss_before);
  EXPECT_TRUE(loaded.global_before == record.global_before);
  ASSERT_EQ(loaded.local_models.size(), record.local_models.size());
  for (size_t i = 0; i < record.local_models.size(); ++i) {
    EXPECT_TRUE(loaded.local_models[i] == record.local_models[i]);
  }
  EXPECT_EQ(loaded.selected, record.selected);
  EXPECT_EQ(loaded.rejected, record.rejected);
  EXPECT_EQ(loaded.dropped, record.dropped);
}

TEST(RoundTripTest, TrainerStateCarriesQuarantineCounters) {
  Rng rng(45);
  FedAvgTrainerState state;
  state.config_fingerprint = 0xDEADBEEFu;
  state.next_round = 3;
  state.params = RandomVector(6, &rng);
  state.test_loss_history = {1.0, 0.8, 0.6};
  state.select_rng = Rng(99).SaveState();
  state.quarantine.rejected = {2, 0};
  state.quarantine.clipped = {0, 1};
  state.quarantine.quarantine_drops = {1, 0};
  state.quarantine.rounds_degraded = 3;
  state.quarantine.rounds_fully_rejected = 0;

  BinaryWriter w;
  SaveTrainerState(state, &w);
  BinaryReader r(w.buffer());
  FedAvgTrainerState loaded;
  ASSERT_TRUE(LoadTrainerState(&r, &loaded).ok());
  EXPECT_EQ(loaded.quarantine.rejected, state.quarantine.rejected);
  EXPECT_EQ(loaded.quarantine.clipped, state.quarantine.clipped);
  EXPECT_EQ(loaded.quarantine.quarantine_drops,
            state.quarantine.quarantine_drops);
  EXPECT_EQ(loaded.quarantine.rounds_degraded,
            state.quarantine.rounds_degraded);
  EXPECT_EQ(loaded.quarantine.rounds_fully_rejected,
            state.quarantine.rounds_fully_rejected);
}

TEST(MalformedFieldTest, RoundRecordGuardSetInvariantsEnforced) {
  Rng rng(46);
  RoundRecord record;
  record.round = 1;
  record.global_before = RandomVector(4, &rng);
  for (int i = 0; i < 4; ++i) {
    record.local_models.push_back(RandomVector(4, &rng));
  }
  record.selected = {0, 2};

  // rejected must be a subset of selected.
  record.rejected = {1};
  record.dropped = {};
  BinaryWriter w1;
  SaveRoundRecord(record, &w1);
  BinaryReader r1(w1.buffer());
  RoundRecord loaded;
  EXPECT_FALSE(LoadRoundRecord(&r1, &loaded).ok());

  // dropped must be disjoint from selected.
  record.rejected = {};
  record.dropped = {2};
  BinaryWriter w2;
  SaveRoundRecord(record, &w2);
  BinaryReader r2(w2.buffer());
  EXPECT_FALSE(LoadRoundRecord(&r2, &loaded).ok());

  // A well-formed degraded record loads.
  record.rejected = {0};
  record.dropped = {1};
  BinaryWriter w3;
  SaveRoundRecord(record, &w3);
  BinaryReader r3(w3.buffer());
  EXPECT_TRUE(LoadRoundRecord(&r3, &loaded).ok());
}

TEST(MalformedFieldTest, QuarantineCountersValidated) {
  Rng rng(47);
  FedAvgTrainerState state;
  state.next_round = 1;
  state.params = RandomVector(3, &rng);
  state.test_loss_history = {1.0};
  state.select_rng = Rng(7).SaveState();
  state.quarantine.rejected = {0, 0};
  state.quarantine.clipped = {0, 0};
  state.quarantine.quarantine_drops = {0, 0};

  // Negative counters are rejected.
  state.quarantine.rejected[0] = -1;
  BinaryWriter w1;
  SaveTrainerState(state, &w1);
  BinaryReader r1(w1.buffer());
  FedAvgTrainerState loaded;
  EXPECT_FALSE(LoadTrainerState(&r1, &loaded).ok());
  state.quarantine.rejected[0] = 0;

  // Per-client counter vectors must agree in length.
  state.quarantine.clipped = {0};
  BinaryWriter w2;
  SaveTrainerState(state, &w2);
  BinaryReader r2(w2.buffer());
  EXPECT_FALSE(LoadTrainerState(&r2, &loaded).ok());
  state.quarantine.clipped = {0, 0};

  // Fully-rejected rounds cannot exceed degraded rounds.
  state.quarantine.rounds_degraded = 1;
  state.quarantine.rounds_fully_rejected = 2;
  BinaryWriter w3;
  SaveTrainerState(state, &w3);
  BinaryReader r3(w3.buffer());
  EXPECT_FALSE(LoadTrainerState(&r3, &loaded).ok());
}

TEST(RoundTripTest, InternerKeepsColumnIdsAndRejectsDuplicates) {
  Rng rng(55);
  CoalitionInterner interner;
  const int universe = 9;
  interner.Intern(Coalition(universe));
  for (int i = 0; i < 40; ++i) {
    Coalition c(universe);
    for (int k = 0; k < universe; ++k) {
      if (rng.NextBernoulli(0.4)) c.Add(k);
    }
    interner.Intern(c);  // duplicates dedupe, order stays
  }

  BinaryWriter w;
  SaveInterner(interner, &w);
  BinaryReader r(w.buffer());
  CoalitionInterner loaded;
  ASSERT_TRUE(LoadInterner(&r, &loaded).ok());
  ASSERT_EQ(loaded.size(), interner.size());
  for (int col = 0; col < interner.size(); ++col) {
    EXPECT_TRUE(loaded.Get(col) == interner.Get(col)) << col;
    EXPECT_EQ(loaded.Find(interner.Get(col)), col);
  }

  // A hand-crafted interner chunk with the same coalition twice cannot
  // produce dense ids — the loader must reject it.
  BinaryWriter dup;
  const size_t handle = dup.BeginChunk(ChunkTag::kCoalitionInterner);
  dup.I32(3);   // universe
  dup.U64(2);   // two columns...
  dup.U64(1);   // ...both the coalition {1}
  dup.I32(1);
  dup.U64(1);
  dup.I32(1);
  dup.EndChunk(handle);
  BinaryReader dr(dup.buffer());
  CoalitionInterner rejected;
  EXPECT_EQ(LoadInterner(&dr, &rejected).code(),
            StatusCode::kDataLoss);
}

TEST(RoundTripTest, FactorPairRankMismatchIsRejected) {
  Rng rng(77);
  FactorPair f{RandomMatrix(5, 3, &rng), RandomMatrix(8, 3, &rng)};
  BinaryWriter w;
  SaveFactorPair(f, &w);
  BinaryReader r(w.buffer());
  FactorPair loaded;
  ASSERT_TRUE(LoadFactorPair(&r, &loaded).ok());
  EXPECT_TRUE(loaded.w == f.w);
  EXPECT_TRUE(loaded.h == f.h);

  FactorPair bad{RandomMatrix(5, 3, &rng), RandomMatrix(8, 2, &rng)};
  BinaryWriter bw;
  SaveFactorPair(bad, &bw);
  BinaryReader br(bw.buffer());
  EXPECT_EQ(LoadFactorPair(&br, &loaded).code(),
            StatusCode::kDataLoss);
}

TEST(MalformedFieldTest, AllZeroRngStateReturnsStatus) {
  BinaryWriter w;
  const size_t handle = w.BeginChunk(ChunkTag::kRngState);
  for (int i = 0; i < 4; ++i) w.U64(0);  // xoshiro stuck-at-zero state
  w.U8(0);
  w.F64(0.0);
  w.EndChunk(handle);
  BinaryReader r(w.buffer());
  RngState state;
  EXPECT_EQ(LoadRngState(&r, &state).code(), StatusCode::kDataLoss);
}

TEST(MalformedFieldTest, WrongChunkTagReturnsStatus) {
  BinaryWriter w;
  SaveVector(Vector(3), &w);
  BinaryReader r(w.buffer());
  Matrix m;
  EXPECT_EQ(LoadMatrix(&r, &m).code(), StatusCode::kInvalidArgument);
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // A representative payload: one serialized vector.
  std::string MakePayload() {
    BinaryWriter w;
    SaveVector(Vector({1.0, 2.0, 3.0}), &w);
    return w.buffer();
  }

  std::string ReadRawFile() {
    std::string bytes;
    FILE* f = fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    char buf[4096];
    size_t n = 0;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    fclose(f);
    return bytes;
  }

  void WriteRawFile(const std::string& bytes) {
    FILE* f = fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(bytes.data(), 1, bytes.size(), f);
    fclose(f);
  }

  std::string path_;
};

TEST_F(CheckpointFileTest, RoundTrip) {
  const std::string payload = MakePayload();
  ASSERT_TRUE(
      WriteCheckpointFile(path_, ChunkTag::kVector, payload).ok());
  Result<std::string> loaded = ReadCheckpointFile(path_, ChunkTag::kVector);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), payload);
  // No stray temp file left behind.
  FILE* tmp = fopen((path_ + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
}

TEST_F(CheckpointFileTest, MissingFileIsNotFound) {
  Result<std::string> loaded = ReadCheckpointFile(path_, ChunkTag::kVector);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointFileTest, TruncationAtEveryLengthReturnsStatus) {
  ASSERT_TRUE(
      WriteCheckpointFile(path_, ChunkTag::kVector, MakePayload()).ok());
  const std::string full = ReadRawFile();
  for (size_t keep = 0; keep < full.size(); ++keep) {
    WriteRawFile(full.substr(0, keep));
    Result<std::string> loaded =
        ReadCheckpointFile(path_, ChunkTag::kVector);
    EXPECT_FALSE(loaded.ok()) << "accepted truncation to " << keep;
  }
}

TEST_F(CheckpointFileTest, EveryCorruptedByteReturnsStatus) {
  ASSERT_TRUE(
      WriteCheckpointFile(path_, ChunkTag::kVector, MakePayload()).ok());
  const std::string full = ReadRawFile();
  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::string corrupted = full;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x5A);
    WriteRawFile(corrupted);
    Result<std::string> loaded =
        ReadCheckpointFile(path_, ChunkTag::kVector);
    EXPECT_FALSE(loaded.ok()) << "accepted corrupt byte " << pos;
  }
}

TEST_F(CheckpointFileTest, BadMagicWrongVersionWrongTag) {
  ASSERT_TRUE(
      WriteCheckpointFile(path_, ChunkTag::kVector, MakePayload()).ok());
  const std::string full = ReadRawFile();

  std::string bad_magic = full;
  bad_magic[0] = 'X';
  WriteRawFile(bad_magic);
  EXPECT_EQ(ReadCheckpointFile(path_, ChunkTag::kVector).status().code(),
            StatusCode::kDataLoss);

  // A version change flips header bytes the checksum covers, so repair
  // the checksum to make the version check (not the checksum) decide.
  std::string bad_version = full;
  bad_version[4] = static_cast<char>(kCheckpointVersion + 1);
  {
    BinaryWriter fixed;
    fixed.U64(Fnv1a64(bad_version.substr(36),
                      Fnv1a64(std::string_view(bad_version).substr(0, 28))));
    bad_version.replace(28, 8, fixed.buffer());
  }
  WriteRawFile(bad_version);
  EXPECT_EQ(ReadCheckpointFile(path_, ChunkTag::kVector).status().code(),
            StatusCode::kFailedPrecondition);

  WriteRawFile(full);
  EXPECT_EQ(ReadCheckpointFile(path_, ChunkTag::kMatrix).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace comfedsv
