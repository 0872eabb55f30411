// Round-log bench: what spilling the training trajectory to disk costs
// and what it buys.
//
// Four sections, all on one real FedAvg trajectory (the records come
// from an actual spill run, not synthetic frames):
//
//   * append — entries/sec through RoundLogWriter per compression mode,
//     with the measured compression ratio (data bytes vs what the same
//     records occupy under kNone).
//   * read — entries/sec serving records back: an in-memory vector of
//     decoded records (the no-spill upper bound) and the reader, which
//     does one ReadFileRange (pread) per frame.
//   * valuation_drift — FedSV / ComFedSV computed from each log via
//     RunValuationFromLog vs the in-memory pipeline: kNone must land at
//     zero drift, kQuant16 trades bounded drift for its ratio.
//   * memory_budget — the headline demo: re-value a trajectory whose
//     log is at least 9x the reader's resident memory (its largest
//     frame) and prove the FedSV output bit-identical to the in-memory
//     run.
//
// Writes BENCH_roundlog.json (schema documented in README.md).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/streaming.h"
#include "io/round_log.h"

namespace comfedsv {
namespace bench {
namespace {

struct Scenario {
  Workload w;
  FedAvgConfig fed;
  ValuationRequest request;
  int num_clients = 0;
};

Scenario MakeScenario(bool full_scale) {
  Scenario s;
  WorkloadOptions opt;
  opt.num_clients = 8;
  opt.samples_per_client = full_scale ? 120 : 60;
  opt.seed = 23;
  s.w = MakeWorkload(PaperDataset::kSynthetic, opt);
  s.num_clients = opt.num_clients;

  // Enough rounds that the log dwarfs the one frame the reader holds.
  s.fed.num_rounds = full_scale ? 80 : 40;
  s.fed.clients_per_round = 5;
  s.fed.lr = LearningRateSchedule::Constant(0.1);
  s.fed.seed = 31;

  s.request.compute_fedsv = true;
  s.request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  s.request.fedsv.permutations_per_round = 4;
  s.request.fedsv.seed = 32;
  s.request.compute_comfedsv = true;
  s.request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  s.request.comfedsv.num_permutations = 4;
  s.request.comfedsv.completion.rank = 3;
  s.request.comfedsv.completion.lambda = 1e-2;
  s.request.comfedsv.completion.max_iters = 50;
  s.request.comfedsv.seed = 33;
  return s;
}

const char* ModeName(RoundLogCompression mode) {
  switch (mode) {
    case RoundLogCompression::kNone:
      return "none";
    case RoundLogCompression::kQuant16:
      return "quant16";
  }
  return "?";
}

double MaxAbsDiff(const Vector& a, const Vector& b) {
  COMFEDSV_CHECK_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

bool BitIdentical(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Writes `records` to a fresh log at `path`, timing the appends and
/// measuring the largest frame.
std::unique_ptr<RoundLogWriter> WriteLog(
    const std::string& path, const std::vector<RoundRecord>& records,
    RoundLogCompression mode, double* seconds, uint64_t* max_frame_bytes) {
  RoundLogOptions options;
  options.compression = mode;
  Result<std::unique_ptr<RoundLogWriter>> writer =
      RoundLogWriter::Create(path, options);
  COMFEDSV_CHECK_OK(writer.status());
  Stopwatch timer;
  *max_frame_bytes = 0;
  for (const RoundRecord& record : records) {
    const uint64_t before = writer.value()->data_size();
    COMFEDSV_CHECK_OK(writer.value()->Append(record));
    *max_frame_bytes =
        std::max(*max_frame_bytes, writer.value()->data_size() - before);
  }
  COMFEDSV_CHECK_OK(writer.value()->Sync());
  *seconds = timer.ElapsedSeconds();
  return std::move(writer).value();
}

}  // namespace
}  // namespace bench
}  // namespace comfedsv

int main(int argc, char** argv) {
  using namespace comfedsv;
  using namespace comfedsv::bench;
  namespace fs = std::filesystem;
  const bool full = FullScale(argc, argv);
  PrintHeader("round-log spill",
              "append/read throughput of the on-disk round store, "
              "compression ratio vs valuation drift per encoding, and a "
              "re-valuation whose log is >= 9x the reader's resident frame",
              full);
  const Scenario s = MakeScenario(full);
  const std::string root = "bench_roundlog_scratch";
  fs::remove_all(root);
  fs::create_directories(root);

  BenchJsonWriter json("roundlog");
  json.Meta("scale", full ? "full" : "reduced");
  json.Meta("rounds", static_cast<double>(s.fed.num_rounds));
  json.Meta("clients", static_cast<double>(s.num_clients));

  // One checkpointed run with spill produces both the baseline values
  // and the reference (kNone) log of the exact trajectory.
  CheckpointConfig ckpt;
  ckpt.path = root + "/run.ckpt";
  ckpt.every_rounds = 8;
  ckpt.round_log_path = root + "/rounds_none.log";
  Result<ValuationOutcome> baseline = RunValuationCheckpointed(
      *s.w.model, s.w.clients, s.w.test, s.fed, s.request, ckpt);
  COMFEDSV_CHECK_OK(baseline.status());
  const Vector base_fedsv = *baseline.value().fedsv_values;
  const Vector base_comfedsv = baseline.value().comfedsv->values;

  // Decode the trajectory back into memory: the append/read sections
  // replay these exact records.
  std::vector<RoundRecord> records;
  {
    Result<std::unique_ptr<RoundLogReader>> reader =
        RoundLogReader::Open(ckpt.round_log_path);
    COMFEDSV_CHECK_OK(reader.status());
    records.resize(reader.value()->rounds());
    for (int pos = 0; pos < reader.value()->rounds(); ++pos) {
      COMFEDSV_CHECK_OK(reader.value()->Read(pos, &records[pos]));
    }
  }
  const int num_records = static_cast<int>(records.size());

  // -- append + valuation_drift per compression mode --------------------
  uint64_t none_log_bytes = 0;
  uint64_t none_max_frame_bytes = 0;
  for (RoundLogCompression mode :
       {RoundLogCompression::kNone, RoundLogCompression::kQuant16}) {
    const std::string path =
        root + "/append_" + std::string(ModeName(mode)) + ".log";
    double seconds = 0.0;
    uint64_t max_frame_bytes = 0;
    std::unique_ptr<RoundLogWriter> writer =
        WriteLog(path, records, mode, &seconds, &max_frame_bytes);
    const double ratio =
        static_cast<double>(writer->data_size()) /
        static_cast<double>(std::max<uint64_t>(
            writer->uncompressed_bytes(), 1));
    json.BeginRecord();
    json.Field("section", "append");
    json.Field("compression", ModeName(mode));
    json.Field("entries", static_cast<double>(num_records));
    json.Field("seconds", seconds);
    json.Field("entries_per_sec", num_records / std::max(seconds, 1e-12));
    json.Field("log_bytes", static_cast<double>(writer->data_size()));
    json.Field("compression_ratio", ratio);
    std::printf("append  %-9s %3d entries  %8.0f entries/s  %7.0f KB  "
                "ratio %.3f\n",
                ModeName(mode), num_records,
                num_records / std::max(seconds, 1e-12),
                writer->data_size() / 1024.0, ratio);
    if (mode == RoundLogCompression::kNone) {
      none_log_bytes = writer->data_size();
      none_max_frame_bytes = max_frame_bytes;
    }

    Result<ValuationOutcome> replayed = RunValuationFromLog(
        *s.w.model, s.w.test, s.num_clients, path, s.request);
    COMFEDSV_CHECK_OK(replayed.status());
    const double fedsv_drift =
        MaxAbsDiff(*replayed.value().fedsv_values, base_fedsv);
    const double comfedsv_drift =
        MaxAbsDiff(replayed.value().comfedsv->values, base_comfedsv);
    json.BeginRecord();
    json.Field("section", "valuation_drift");
    json.Field("compression", ModeName(mode));
    json.Field("compression_ratio", ratio);
    json.Field("fedsv_max_abs_drift", fedsv_drift);
    json.Field("comfedsv_max_abs_drift", comfedsv_drift);
    json.Field("bit_identical",
               BitIdentical(*replayed.value().fedsv_values, base_fedsv));
    std::printf("drift   %-9s ratio %.3f  fedsv %.3g  comfedsv %.3g\n",
                ModeName(mode), ratio, fedsv_drift, comfedsv_drift);
  }

  // -- read: in-memory vs the pread reader -----------------------------
  {
    const std::string path = root + "/append_none.log";
    const int passes = full ? 8 : 4;

    Stopwatch mem_timer;
    double sink = 0.0;
    for (int pass = 0; pass < passes; ++pass) {
      for (const RoundRecord& record : records) {
        sink += record.test_loss_before;  // the no-I/O upper bound
      }
    }
    const double mem_seconds = mem_timer.ElapsedSeconds();

    Result<std::unique_ptr<RoundLogReader>> reader =
        RoundLogReader::Open(path);
    COMFEDSV_CHECK_OK(reader.status());
    Stopwatch pread_timer;
    RoundRecord scratch;
    for (int pass = 0; pass < passes; ++pass) {
      for (int pos = 0; pos < num_records; ++pos) {
        COMFEDSV_CHECK_OK(reader.value()->Read(pos, &scratch));
      }
    }
    const double pread_seconds = pread_timer.ElapsedSeconds();

    const double entries = static_cast<double>(num_records) * passes;
    struct ReadPath {
      const char* name;
      double seconds;
      double frame_reads;
    };
    const ReadPath paths[] = {
        {"in_memory", mem_seconds, 0.0},
        {"pread", pread_seconds,
         static_cast<double>(reader.value()->fallback_reads())},
    };
    for (const ReadPath& path_stats : paths) {
      json.BeginRecord();
      json.Field("section", "read");
      json.Field("path", path_stats.name);
      json.Field("entries", entries);
      json.Field("seconds", path_stats.seconds);
      json.Field("entries_per_sec",
                 entries / std::max(path_stats.seconds, 1e-12));
      json.Field("fallback_reads", path_stats.frame_reads);
      std::printf("read    %-12s %8.0f entries/s  (%.0f preads)\n",
                  path_stats.name,
                  entries / std::max(path_stats.seconds, 1e-12),
                  path_stats.frame_reads);
    }
    (void)sink;
  }

  // -- memory_budget: log size vs resident frame ------------------------
  {
    Stopwatch timer;
    Result<ValuationOutcome> replayed =
        RunValuationFromLog(*s.w.model, s.w.test, s.num_clients,
                            ckpt.round_log_path, s.request);
    COMFEDSV_CHECK_OK(replayed.status());
    const double seconds = timer.ElapsedSeconds();
    const bool identical =
        BitIdentical(*replayed.value().fedsv_values, base_fedsv);
    // The reader holds one frame at a time, so the largest frame bounds
    // what the log contributes to resident memory.
    const double budget_ratio =
        static_cast<double>(none_log_bytes) /
        static_cast<double>(std::max<uint64_t>(none_max_frame_bytes, 1));
    json.BeginRecord();
    json.Field("section", "memory_budget");
    json.Field("log_bytes", static_cast<double>(none_log_bytes));
    json.Field("max_frame_bytes", static_cast<double>(none_max_frame_bytes));
    json.Field("budget_ratio", budget_ratio);
    json.Field("rounds", static_cast<double>(num_records));
    json.Field("revaluation_seconds", seconds);
    json.Field("bit_identical", identical);
    std::printf("budget  log %.0f KB / largest frame %.0f KB (%.1fx)  "
                "re-valued %d rounds in %.2f s  bit_identical=%d\n",
                none_log_bytes / 1024.0, none_max_frame_bytes / 1024.0,
                budget_ratio, num_records, seconds, identical ? 1 : 0);
    COMFEDSV_CHECK(identical);
    COMFEDSV_CHECK_GE(budget_ratio, 9.0);
  }

  fs::remove_all(root);
  return json.WriteFile() ? 0 : 1;
}
