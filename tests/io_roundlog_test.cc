// Round-log suite: payload encodings (lossless kNone, lossy u16
// quantization), writer/reader round trips, footer-index recovery, torn
// tails, resume truncation, exhaustive truncate/flip sweeps over the
// data and index files — and the golden equality gate: valuation
// replayed from a spilled kNone log must match the in-memory pipeline
// bit-for-bit, for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "data/image_sim.h"
#include "data/partition.h"
#include "io/checkpoint_manager.h"
#include "io/file_env.h"
#include "io/round_log.h"
#include "io/serialize.h"
#include "models/logistic.h"

namespace comfedsv {
namespace {

namespace fs = std::filesystem;

class RoundLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().ClearAll();
    root_ = fs::path(::testing::TempDir()) /
            ("io_roundlog_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override {
    FailpointRegistry::Global().ClearAll();
    fs::remove_all(root_);
  }

  std::string Path(const std::string& name) {
    return (root_ / name).string();
  }

  fs::path root_;
};

/// A deterministic record with `quiet` of the clients left exactly at
/// the global model (a sanitized / unselected update).
RoundRecord MakeRecord(int round, int num_clients, size_t dim, int quiet) {
  RoundRecord r;
  r.round = round;
  r.test_loss_before = 1.25 + 0.125 * round;
  r.global_before.Resize(dim);
  for (size_t j = 0; j < dim; ++j) {
    r.global_before[j] = 0.37 * static_cast<double>(j) - 0.5 * round;
  }
  r.local_models.assign(static_cast<size_t>(num_clients),
                        r.global_before);
  for (int i = quiet; i < num_clients; ++i) {
    Vector& local = r.local_models[static_cast<size_t>(i)];
    for (size_t j = 0; j < dim; ++j) {
      local[j] += 1e-3 * static_cast<double>(i + 1) *
                  (static_cast<double>(j % 7) - 3.0);
    }
    r.selected.push_back(i);
  }
  if (num_clients > quiet + 1) r.rejected.push_back(quiet + 1);
  if (quiet > 0) r.dropped.push_back(0);
  return r;
}

/// The low `bytes` bytes of `v`, little-endian: hand-built log fields.
std::string LittleEndian(uint64_t v, int bytes) {
  std::string out;
  for (int k = 0; k < bytes; ++k) {
    out.push_back(static_cast<char>((v >> (8 * k)) & 0xFF));
  }
  return out;
}

/// The real file system without fsync: the sweeps below rewrite and
/// reopen a log thousands of times, and durability is not what they
/// test.
class NoSyncEnv : public FileEnv {
 public:
  Status SyncFile(const std::string&) override { return Status::Ok(); }
  Status SyncDir(const std::string&) override { return Status::Ok(); }
};

void ExpectRecordBitIdentical(const RoundRecord& a, const RoundRecord& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.test_loss_before, b.test_loss_before);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.dropped, b.dropped);
  ASSERT_EQ(a.global_before.size(), b.global_before.size());
  for (size_t j = 0; j < a.global_before.size(); ++j) {
    EXPECT_EQ(a.global_before[j], b.global_before[j]) << "global[" << j
                                                      << "]";
  }
  ASSERT_EQ(a.local_models.size(), b.local_models.size());
  for (size_t i = 0; i < a.local_models.size(); ++i) {
    ASSERT_EQ(a.local_models[i].size(), b.local_models[i].size());
    for (size_t j = 0; j < a.local_models[i].size(); ++j) {
      EXPECT_EQ(a.local_models[i][j], b.local_models[i][j])
          << "local[" << i << "][" << j << "]";
    }
  }
}

// ---------------------------------------------------------------------
// Payload encodings.
// ---------------------------------------------------------------------

TEST_F(RoundLogTest, LosslessEncodingsRoundTripBitExact) {
  const RoundRecord record = MakeRecord(3, 6, 64, /*quiet=*/4);
  const std::string payload =
      EncodeRoundRecordPayload(record, RoundLogCompression::kNone);
  RoundRecord decoded;
  ASSERT_TRUE(
      DecodeRoundRecordPayload(payload, RoundLogCompression::kNone, &decoded)
          .ok());
  ExpectRecordBitIdentical(record, decoded);
}

TEST_F(RoundLogTest, Quant16RoundTripsWithinOneGridStep) {
  const RoundRecord record = MakeRecord(1, 5, 48, /*quiet=*/2);
  const std::string payload =
      EncodeRoundRecordPayload(record, RoundLogCompression::kQuant16);
  RoundRecord decoded;
  ASSERT_TRUE(
      DecodeRoundRecordPayload(payload, RoundLogCompression::kQuant16,
                               &decoded)
          .ok());
  // Everything except the local models is exact.
  EXPECT_EQ(record.round, decoded.round);
  EXPECT_EQ(record.test_loss_before, decoded.test_loss_before);
  EXPECT_EQ(record.selected, decoded.selected);
  for (size_t j = 0; j < record.global_before.size(); ++j) {
    EXPECT_EQ(record.global_before[j], decoded.global_before[j]);
  }
  // Local models land within one quantization step of the truth.
  for (size_t i = 0; i < record.local_models.size(); ++i) {
    double lo = 0.0, hi = 0.0;
    for (size_t j = 0; j < record.local_models[i].size(); ++j) {
      const double d =
          record.local_models[i][j] - record.global_before[j];
      if (j == 0 || d < lo) lo = d;
      if (j == 0 || d > hi) hi = d;
    }
    const double step = (hi - lo) / 65535.0;
    for (size_t j = 0; j < record.local_models[i].size(); ++j) {
      EXPECT_NEAR(record.local_models[i][j], decoded.local_models[i][j],
                  step + 1e-15)
          << "local[" << i << "][" << j << "]";
    }
  }
  // And it is much smaller than the exact encoding (u16 vs f64 per
  // element, minus the shared prelude).
  EXPECT_LT(payload.size(),
            EncodeRoundRecordPayload(record, RoundLogCompression::kNone)
                .size());
}

// ---------------------------------------------------------------------
// Writer / reader round trips and recovery.
// ---------------------------------------------------------------------

TEST_F(RoundLogTest, WriterReaderRoundTripAcrossIndexCadences) {
  for (int index_every : {1, 3}) {  // 3 leaves an unindexed tail to scan
    const std::string path = Path("log_" + std::to_string(index_every));
    RoundLogOptions options;
    options.index_every = index_every;
    auto writer = RoundLogWriter::Create(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int t = 0; t < 7; ++t) {
      ASSERT_TRUE(writer.value()->Append(MakeRecord(t, 4, 32, 2)).ok());
    }
    EXPECT_EQ(writer.value()->rounds(), 7);

    auto reader = RoundLogReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader.value()->compression(), RoundLogCompression::kNone);
    ASSERT_EQ(reader.value()->rounds(), 7);
    for (int t = 0; t < 7; ++t) {
      RoundRecord decoded;
      ASSERT_TRUE(reader.value()->Read(t, &decoded).ok());
      ExpectRecordBitIdentical(MakeRecord(t, 4, 32, 2), decoded);
    }
  }
}

TEST_F(RoundLogTest, ReaderRebuildsFromScanWhenIndexIsMissing) {
  const std::string path = Path("log");
  auto writer = RoundLogWriter::Create(path, {});
  ASSERT_TRUE(writer.ok());
  for (int t = 0; t < 5; ++t) {
    ASSERT_TRUE(writer.value()->Append(MakeRecord(t, 3, 16, 1)).ok());
  }
  ASSERT_TRUE(FileEnv::Real()->Remove(path + ".idx").ok());

  auto reader = RoundLogReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value()->rounds(), 5);
  RoundRecord decoded;
  ASSERT_TRUE(reader.value()->Read(4, &decoded).ok());
  ExpectRecordBitIdentical(MakeRecord(4, 3, 16, 1), decoded);
}

TEST_F(RoundLogTest, TornTailFrameIsIgnoredOnOpen) {
  const std::string path = Path("log");
  RoundLogOptions options;
  options.index_every = 100;  // keep the index out of the picture
  auto writer = RoundLogWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(writer.value()->Append(MakeRecord(t, 3, 16, 1)).ok());
  }
  // A crash mid-append: half a frame header plus garbage.
  ASSERT_TRUE(
      FileEnv::Real()
          ->AppendFile(path, std::string(29, '\xAB'))
          .ok());

  auto reader = RoundLogReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->rounds(), 4);
}

TEST_F(RoundLogTest, CorruptIndexedFrameFailsTheReadNotTheOpen) {
  const std::string path = Path("log");
  auto writer = RoundLogWriter::Create(path, {});
  ASSERT_TRUE(writer.ok());
  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(writer.value()->Append(MakeRecord(t, 3, 16, 1)).ok());
  }
  // Flip one payload byte inside the middle frame. The index still
  // lists it; the frame checksum catches it at Read time.
  auto bytes = FileEnv::Real()->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  corrupted[corrupted.size() / 2] ^= 0x40;
  ASSERT_TRUE(FileEnv::Real()->WriteFile(path, corrupted).ok());

  auto reader = RoundLogReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value()->rounds(), 3);
  RoundRecord decoded;
  EXPECT_EQ(reader.value()->Read(1, &decoded).code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(reader.value()->Read(0, &decoded).ok());
}

TEST_F(RoundLogTest, OpenForAppendReplaysToAByteIdenticalLog) {
  // Log A: five rounds, uninterrupted. Log B: five rounds, then a
  // "resume" from round 3 — truncate and re-append rounds 3 and 4.
  const std::string a = Path("a.log");
  const std::string b = Path("b.log");
  for (const std::string& path : {a, b}) {
    auto writer = RoundLogWriter::Create(path, {});
    ASSERT_TRUE(writer.ok());
    for (int t = 0; t < 5; ++t) {
      ASSERT_TRUE(writer.value()->Append(MakeRecord(t, 4, 24, 2)).ok());
    }
  }
  auto resumed = RoundLogWriter::OpenForAppend(b, 3, {});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->rounds(), 3);
  for (int t = 3; t < 5; ++t) {
    ASSERT_TRUE(resumed.value()->Append(MakeRecord(t, 4, 24, 2)).ok());
  }
  auto bytes_a = FileEnv::Real()->ReadFile(a);
  auto bytes_b = FileEnv::Real()->ReadFile(b);
  ASSERT_TRUE(bytes_a.ok());
  ASSERT_TRUE(bytes_b.ok());
  EXPECT_EQ(bytes_a.value(), bytes_b.value());

  // Asking for more intact frames than exist is data loss, not a
  // silent short log.
  EXPECT_EQ(RoundLogWriter::OpenForAppend(b, 9, {}).status().code(),
            StatusCode::kDataLoss);
  // And a compression-mode mismatch is a config error, not corruption.
  RoundLogOptions other;
  other.compression = RoundLogCompression::kQuant16;
  EXPECT_EQ(RoundLogWriter::OpenForAppend(b, 3, other).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// Corruption: hostile lengths, exhaustive sweeps, the retired encoding.
// ---------------------------------------------------------------------

TEST_F(RoundLogTest, FrameLengthNearTwoToTheSixtyFourEndsTheScan) {
  const std::string path = Path("log");
  {
    auto writer = RoundLogWriter::Create(path, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(MakeRecord(0, 3, 16, 1)).ok());
  }
  // A 24-byte frame whose payload length is 2^64 - 8: header + payload
  // + trailer wraps to 16, which a scan that adds before it compares
  // would take for a frame that fits.
  const std::string frame = LittleEndian(1, 4) + LittleEndian(0, 4) +
                            LittleEndian(~uint64_t{0} - 7, 8) +
                            std::string(8, '\0');
  ASSERT_TRUE(FileEnv::Real()->AppendFile(path, frame).ok());
  ASSERT_TRUE(FileEnv::Real()->Remove(path + ".idx").ok());

  auto reader = RoundLogReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->rounds(), 1);
  EXPECT_EQ(RoundLogWriter::OpenForAppend(path, 2, {}).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(RoundLogTest, TruncationAndByteFlipSweepsNeverServeWrongRecords) {
  NoSyncEnv env;
  for (RoundLogCompression mode :
       {RoundLogCompression::kNone, RoundLogCompression::kQuant16}) {
    SCOPED_TRACE("compression=" + std::to_string(static_cast<int>(mode)));
    const std::string path =
        Path("sweep_" + std::to_string(static_cast<int>(mode)));
    RoundLogOptions options;
    options.compression = mode;
    options.env = &env;
    std::vector<uint64_t> frame_ends;
    {
      auto writer = RoundLogWriter::Create(path, options);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      for (int t = 0; t < 3; ++t) {
        ASSERT_TRUE(writer.value()->Append(MakeRecord(t, 2, 4, 1)).ok());
        frame_ends.push_back(writer.value()->data_size());
      }
    }
    Result<std::string> data_read = env.ReadFile(path);
    Result<std::string> index_read = env.ReadFile(path + ".idx");
    ASSERT_TRUE(data_read.ok());
    ASSERT_TRUE(index_read.ok());
    const std::string data = data_read.value();
    const std::string index = index_read.value();

    // What the intact log serves; kNone must also be the records
    // themselves.
    std::vector<RoundRecord> originals(3);
    {
      auto reader = RoundLogReader::Open(path, {&env});
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      ASSERT_EQ(reader.value()->rounds(), 3);
      for (int t = 0; t < 3; ++t) {
        ASSERT_TRUE(reader.value()->Read(t, &originals[t]).ok());
        if (mode == RoundLogCompression::kNone) {
          ExpectRecordBitIdentical(MakeRecord(t, 2, 4, 1), originals[t]);
        }
      }
    }

    // Installs a (mutated) data file and index (nullptr = no index),
    // reads every position back, then resumes behind all three frames.
    // Every record served must be bit-identical to the original at its
    // position. Returns how many were served, -1 when Open refused.
    auto check = [&](const std::string& d, const std::string* idx) {
      EXPECT_TRUE(env.WriteFile(path, d).ok());
      EXPECT_TRUE((idx != nullptr ? env.WriteFile(path + ".idx", *idx)
                                  : env.Remove(path + ".idx"))
                      .ok());
      int served = -1;
      auto reader = RoundLogReader::Open(path, {&env});
      if (reader.ok()) {
        served = 0;
        EXPECT_LE(reader.value()->rounds(), 3);
        for (int pos = 0; pos < reader.value()->rounds(); ++pos) {
          RoundRecord record;
          if (!reader.value()->Read(pos, &record).ok()) continue;
          ExpectRecordBitIdentical(originals[static_cast<size_t>(pos)],
                                   record);
          ++served;
        }
      }
      // The resume scan trusts checksums only: it succeeds exactly when
      // every frame is intact.
      const Status resumed =
          RoundLogWriter::OpenForAppend(path, 3, options).status();
      EXPECT_EQ(resumed.ok(), served == 3) << resumed.ToString();
      return served;
    };

    const std::string* no_index = nullptr;
    for (const std::string* idx : {&index, no_index}) {
      SCOPED_TRACE(idx != nullptr ? "with index" : "without index");
      for (size_t keep = 0; keep < data.size(); ++keep) {
        int whole = 0;
        for (uint64_t end : frame_ends) whole += end <= keep ? 1 : 0;
        EXPECT_EQ(check(data.substr(0, keep), idx),
                  keep < kRoundLogHeaderSize ? -1 : whole)
            << "data truncated to " << keep;
      }
      for (size_t pos = 0; pos < data.size(); ++pos) {
        std::string corrupted = data;
        corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x5A);
        // A flipped byte costs at least the frame (or header) it is in.
        EXPECT_LT(check(corrupted, idx), 3) << "data byte " << pos;
      }
    }
    // The index is only an accelerator: any damage to it falls back to
    // the scan, which finds all three frames.
    for (size_t keep = 0; keep < index.size(); ++keep) {
      const std::string cut = index.substr(0, keep);
      EXPECT_EQ(check(data, &cut), 3) << "index truncated to " << keep;
    }
    for (size_t pos = 0; pos < index.size(); ++pos) {
      std::string corrupted = index;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x5A);
      EXPECT_EQ(check(data, &corrupted), 3) << "index byte " << pos;
    }
  }
}

TEST_F(RoundLogTest, RetiredXorDeltaValueIsRefused) {
  const std::string path = Path("log");
  {
    auto writer = RoundLogWriter::Create(path, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(MakeRecord(0, 3, 16, 1)).ok());
  }
  Result<std::string> read = FileEnv::Real()->ReadFile(path);
  ASSERT_TRUE(read.ok());
  const std::string pristine = read.value();

  // A header that says 1 under a valid checksum: a log written before
  // the xor_delta encoding was retired.
  std::string old_header = pristine;
  old_header.replace(8, 4, LittleEndian(1, 4));
  old_header.replace(
      16, 8,
      LittleEndian(Fnv1a64(std::string_view(old_header).substr(0, 16)), 8));
  ASSERT_TRUE(FileEnv::Real()->WriteFile(path, old_header).ok());
  EXPECT_EQ(RoundLogReader::Open(path).status().code(),
            StatusCode::kFailedPrecondition);
  for (RoundLogCompression mode :
       {RoundLogCompression::kNone, RoundLogCompression::kQuant16}) {
    RoundLogOptions options;
    options.compression = mode;
    EXPECT_EQ(RoundLogWriter::OpenForAppend(path, 0, options).status().code(),
              StatusCode::kFailedPrecondition);
  }

  // A kNone log whose one frame says 1 under a valid frame checksum.
  std::string old_frame = pristine;
  const size_t frame_at = kRoundLogHeaderSize;
  const size_t checksum_at = old_frame.size() - 8;
  old_frame.replace(frame_at + 4, 4, LittleEndian(1, 4));
  old_frame.replace(
      checksum_at, 8,
      LittleEndian(Fnv1a64(std::string_view(old_frame).substr(
                       frame_at, checksum_at - frame_at)),
                   8));
  ASSERT_TRUE(FileEnv::Real()->WriteFile(path, old_frame).ok());
  auto reader = RoundLogReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value()->rounds(), 1);
  RoundRecord decoded;
  EXPECT_EQ(reader.value()->Read(0, &decoded).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(DecodeRoundRecordPayload(
                "", static_cast<RoundLogCompression>(1), &decoded)
                .code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// Golden equality: spill-to-log valuation vs the in-memory pipeline.
// ---------------------------------------------------------------------

struct GoldenWorkload {
  std::vector<Dataset> clients;
  Dataset test;
};

GoldenWorkload MakeGoldenWorkload(int num_clients, uint64_t seed) {
  SimulatedImageConfig cfg;
  cfg.num_samples = 40 * num_clients + 120;
  cfg.seed = seed;
  Dataset pool = GenerateSimulatedImages(cfg);
  Rng rng(seed + 1);
  auto [train_pool, test] = pool.RandomSplit(0.25, &rng);
  return {PartitionIid(train_pool, num_clients, &rng), std::move(test)};
}

ValuationRequest GoldenRequest() {
  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  request.fedsv.permutations_per_round = 4;
  request.fedsv.seed = 18;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 4;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 20;
  request.comfedsv.seed = 19;
  return request;
}

void ExpectVectorsBitIdentical(const Vector& a, const Vector& b,
                               const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " diverges at client " << i;
  }
}

TEST_F(RoundLogTest, SpilledValuationMatchesInMemoryAcrossModesAndThreads) {
  constexpr int kClients = 4;
  GoldenWorkload w = MakeGoldenWorkload(kClients, 7117);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 4;
  fed_cfg.clients_per_round = 3;
  fed_cfg.seed = 17;
  const ValuationRequest request = GoldenRequest();

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecutionContext ctx(threads);
    Result<ValuationOutcome> baseline = RunValuation(
        model, w.clients, w.test, fed_cfg, request, &ctx);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const Vector base_fedsv = *baseline.value().fedsv_values;
    const Vector base_comfedsv = baseline.value().comfedsv->values;

    {
      const std::string tag = std::to_string(threads);
      CheckpointConfig ckpt;
      ckpt.path = Path("ckpt_" + tag);
      ckpt.keep_generations = 2;
      ckpt.round_log_path = Path("spill_" + tag + ".log");
      Result<ValuationOutcome> spilled = RunValuationCheckpointed(
          model, w.clients, w.test, fed_cfg, request, ckpt, &ctx);
      ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
      EXPECT_EQ(spilled.value().health.spill_failures, 0);
      Result<std::unique_ptr<RoundLogReader>> log =
          RoundLogReader::Open(ckpt.round_log_path);
      ASSERT_TRUE(log.ok()) << log.status().ToString();
      EXPECT_EQ(log.value()->rounds(), fed_cfg.num_rounds);
      // The spill run itself is untouched by the logging.
      ExpectVectorsBitIdentical(*spilled.value().fedsv_values, base_fedsv,
                                "FedSV of the spilling run");

      Result<ValuationOutcome> replayed = RunValuationFromLog(
          model, w.test, kClients, ckpt.round_log_path, request, {}, &ctx);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      EXPECT_EQ(replayed.value().training.rounds_run, fed_cfg.num_rounds);
      // Lossless log replay is the same trajectory: bit-identical FedSV,
      // and the ComFedSV solve sees bit-identical inputs (so well inside
      // a 1e-9 envelope — it is exact).
      ExpectVectorsBitIdentical(*replayed.value().fedsv_values, base_fedsv,
                                "FedSV from log");
      ASSERT_EQ(replayed.value().comfedsv->values.size(),
                base_comfedsv.size());
      for (size_t i = 0; i < base_comfedsv.size(); ++i) {
        EXPECT_NEAR(replayed.value().comfedsv->values[i], base_comfedsv[i],
                    1e-9)
            << "ComFedSV client " << i;
        EXPECT_EQ(replayed.value().comfedsv->values[i], base_comfedsv[i])
            << "lossless replay should be exact, client " << i;
      }
    }

    // The lossy mode replays to a *nearby* valuation: everything
    // finite, drift bounded well away from the signal scale.
    {
      CheckpointConfig ckpt;
      ckpt.path = Path("ckpt_q_" + std::to_string(threads));
      ckpt.round_log_path =
          Path("spill_q_" + std::to_string(threads) + ".log");
      ckpt.round_log_compression = RoundLogCompression::kQuant16;
      Result<ValuationOutcome> spilled = RunValuationCheckpointed(
          model, w.clients, w.test, fed_cfg, request, ckpt, &ctx);
      ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
      Result<ValuationOutcome> replayed = RunValuationFromLog(
          model, w.test, kClients, ckpt.round_log_path, request, {}, &ctx);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      for (size_t i = 0; i < base_fedsv.size(); ++i) {
        const double diff =
            std::abs((*replayed.value().fedsv_values)[i] - base_fedsv[i]);
        EXPECT_TRUE(std::isfinite(diff)) << "client " << i;
        EXPECT_LT(diff, 1e-2) << "quantization drift, client " << i;
      }
    }
  }
}

// The bounded-memory claim: the reader holds one frame at a time, so a
// trajectory whose kNone log is at least 9x its largest frame re-values
// from disk to the in-memory FedSV bit for bit.
TEST_F(RoundLogTest, LogAtLeastNineFramesLargeRevaluesBitIdentical) {
  constexpr int kClients = 4;
  GoldenWorkload w = MakeGoldenWorkload(kClients, 2323);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 12;
  fed_cfg.clients_per_round = 3;
  fed_cfg.seed = 31;
  const ValuationRequest request = GoldenRequest();

  Result<ValuationOutcome> baseline =
      RunValuation(model, w.clients, w.test, fed_cfg, request);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  CheckpointConfig ckpt;
  ckpt.path = Path("run.ckpt");
  ckpt.every_rounds = 4;
  ckpt.round_log_path = Path("rounds.log");
  ASSERT_EQ(ckpt.round_log_compression, RoundLogCompression::kNone);
  Result<ValuationOutcome> spilled = RunValuationCheckpointed(
      model, w.clients, w.test, fed_cfg, request, ckpt);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();

  // Re-append the spilled records, measuring each frame; the copy must
  // be byte-for-byte the same size as the log it came from.
  Result<std::unique_ptr<RoundLogReader>> reader =
      RoundLogReader::Open(ckpt.round_log_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_GE(reader.value()->rounds(), 10);
  Result<std::unique_ptr<RoundLogWriter>> copy =
      RoundLogWriter::Create(Path("copy.log"));
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  uint64_t max_frame_bytes = 0;
  RoundRecord record;
  for (int pos = 0; pos < reader.value()->rounds(); ++pos) {
    ASSERT_TRUE(reader.value()->Read(pos, &record).ok());
    const uint64_t before = copy.value()->data_size();
    ASSERT_TRUE(copy.value()->Append(record).ok());
    max_frame_bytes =
        std::max(max_frame_bytes, copy.value()->data_size() - before);
  }
  EXPECT_EQ(copy.value()->data_size(), reader.value()->data_size());
  EXPECT_GE(reader.value()->data_size(), 9 * max_frame_bytes);

  Result<ValuationOutcome> replayed = RunValuationFromLog(
      model, w.test, kClients, ckpt.round_log_path, request);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectVectorsBitIdentical(*replayed.value().fedsv_values,
                            *baseline.value().fedsv_values,
                            "FedSV from a 9x-frame log");
}

// ---------------------------------------------------------------------
// Engine-level spill: checkpoint/restore realigns the log.
// ---------------------------------------------------------------------

TEST_F(RoundLogTest, EngineRestoreTruncatesLogBackToCheckpointedRound) {
  constexpr int kClients = 3;
  GoldenWorkload w = MakeGoldenWorkload(kClients, 4242);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 3;
  fed_cfg.clients_per_round = 2;
  fed_cfg.seed = 17;
  StreamingConfig streaming;
  streaming.request = GoldenRequest();
  streaming.spill.enabled = true;

  // Uninterrupted baseline log.
  const std::string clean_log = Path("clean.log");
  {
    StreamingConfig cfg = streaming;
    cfg.spill.path = clean_log;
    StreamingValuationEngine engine(&model, &w.test, kClients, cfg);
    FedAvgTrainer trainer(&model, w.clients, w.test, fed_cfg);
    ASSERT_TRUE(trainer.Begin().ok());
    while (!trainer.Done()) engine.OnRound(trainer.Step());
    ASSERT_TRUE(engine.SyncSpill().ok());
    EXPECT_EQ(engine.spill_writer()->rounds(), fed_cfg.num_rounds);
  }

  // Interrupted run: checkpoint after round 2, keep streaming round 3
  // into the log, then "crash" (drop the engine without another save).
  const std::string crash_log = Path("crash.log");
  const std::string stem = Path("stream.ckpt");
  CheckpointManagerOptions mgr_options;
  mgr_options.keep_generations = 2;
  CheckpointManager manager(stem, mgr_options);
  {
    StreamingConfig cfg = streaming;
    cfg.spill.path = crash_log;
    StreamingValuationEngine engine(&model, &w.test, kClients, cfg);
    FedAvgTrainer trainer(&model, w.clients, w.test, fed_cfg);
    ASSERT_TRUE(trainer.Begin().ok());
    while (!trainer.Done()) {
      const RoundRecord& record = trainer.Step();
      engine.OnRound(record);
      if (engine.rounds_consumed() == 2) {
        ASSERT_TRUE(engine.SaveCheckpoint(&manager).ok());
      }
    }
    EXPECT_EQ(engine.spill_writer()->rounds(), 3);  // round 3 is extra
  }

  // Resume: restore at round 2, replay round 3. The first spilled
  // round truncates the log back to the checkpointed position, so the
  // final file is byte-identical to the uninterrupted one.
  {
    StreamingConfig cfg = streaming;
    cfg.spill.path = crash_log;
    StreamingValuationEngine engine(&model, &w.test, kClients, cfg);
    ASSERT_TRUE(engine.RestoreCheckpoint(&manager).ok());
    ASSERT_EQ(engine.rounds_consumed(), 2);
    FedAvgTrainer trainer(&model, w.clients, w.test, fed_cfg);
    ASSERT_TRUE(trainer.Begin().ok());
    while (!trainer.Done()) {
      const RoundRecord& record = trainer.Step();
      if (record.round < 2) continue;
      engine.OnRound(record);
    }
    ASSERT_TRUE(engine.SyncSpill().ok());
    EXPECT_EQ(engine.health().spill_failures, 0);
    EXPECT_EQ(engine.spill_writer()->rounds(), fed_cfg.num_rounds);
  }
  auto clean_bytes = FileEnv::Real()->ReadFile(clean_log);
  auto crash_bytes = FileEnv::Real()->ReadFile(crash_log);
  ASSERT_TRUE(clean_bytes.ok());
  ASSERT_TRUE(crash_bytes.ok());
  EXPECT_EQ(clean_bytes.value(), crash_bytes.value());
}

TEST_F(RoundLogTest, IndexEveryBelowOneIsAnInvalidArgument) {
  RoundLogOptions bad;
  bad.index_every = 0;
  EXPECT_EQ(RoundLogWriter::Create(Path("log"), bad).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(RoundLogWriter::Create(Path("log"), {}).ok());
  EXPECT_EQ(RoundLogWriter::OpenForAppend(Path("log"), 0, bad).status().code(),
            StatusCode::kInvalidArgument);

  // An engine configured directly reaches the writer through
  // StreamingConfig::spill: the bad value degrades the spill instead of
  // aborting the process.
  constexpr int kClients = 3;
  GoldenWorkload w = MakeGoldenWorkload(kClients, 4242);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 1;
  fed_cfg.clients_per_round = 2;
  fed_cfg.seed = 17;
  StreamingConfig cfg;
  cfg.request = GoldenRequest();
  cfg.spill.enabled = true;
  cfg.spill.path = Path("engine.log");
  cfg.spill.index_every = 0;
  StreamingValuationEngine engine(&model, &w.test, kClients, cfg);
  FedAvgTrainer trainer(&model, w.clients, w.test, fed_cfg);
  ASSERT_TRUE(trainer.Begin().ok());
  EXPECT_EQ(engine.Consume(trainer.Step()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.health().spill_failures, 1);
  EXPECT_EQ(engine.rounds_consumed(), 1);
}

}  // namespace
}  // namespace comfedsv
