// Shared helpers for the figure-reproduction bench binaries: the four
// paper workloads (synthetic+logistic, MNIST-sim+MLP, FMNIST-sim+CNN,
// CIFAR10-sim+CNN), scale handling (--full for paper-scale parameters),
// and output conventions.
#ifndef COMFEDSV_BENCH_BENCH_COMMON_H_
#define COMFEDSV_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/comfedsv_api.h"
#include "stopwatch.h"

namespace comfedsv {
namespace bench {

/// The four dataset/model pairs of the paper's evaluation (Sec. VII-A).
enum class PaperDataset { kSynthetic, kMnist, kFashionMnist, kCifar10 };

inline const std::vector<PaperDataset>& AllPaperDatasets() {
  static const std::vector<PaperDataset> kAll = {
      PaperDataset::kSynthetic, PaperDataset::kMnist,
      PaperDataset::kFashionMnist, PaperDataset::kCifar10};
  return kAll;
}

inline std::string DatasetName(PaperDataset d) {
  switch (d) {
    case PaperDataset::kSynthetic:
      return "synthetic";
    case PaperDataset::kMnist:
      return "mnist-sim";
    case PaperDataset::kFashionMnist:
      return "fmnist-sim";
    case PaperDataset::kCifar10:
      return "cifar10-sim";
  }
  return "?";
}

/// A ready-to-train federated workload: per-client data, central test
/// set, and the model the paper pairs with the dataset.
struct Workload {
  std::vector<Dataset> clients;
  Dataset test;
  std::unique_ptr<Model> model;
  std::string dataset_name;
  std::string model_name;
};

struct WorkloadOptions {
  int num_clients = 10;
  int samples_per_client = 120;
  int test_samples = 150;
  bool noniid = true;  ///< label shards for image data, alpha=beta=1 synth
  uint64_t seed = 0;
};

/// Builds one of the paper's four workloads.
inline Workload MakeWorkload(PaperDataset which,
                             const WorkloadOptions& opt) {
  Workload w;
  w.dataset_name = DatasetName(which);
  Rng rng(opt.seed ^ 0xBE4C4ULL);

  if (which == PaperDataset::kSynthetic) {
    SyntheticConfig cfg;
    cfg.num_clients = opt.num_clients;
    // Generate extra samples per client and pool a held-out fraction as
    // the central test set (the FedProx protocol).
    const int holdout =
        std::max(1, opt.test_samples / opt.num_clients + 1);
    cfg.samples_per_client = opt.samples_per_client + holdout;
    cfg.dim = 60;
    cfg.num_classes = 10;
    cfg.iid = !opt.noniid;
    cfg.alpha = opt.noniid ? 1.0 : 0.0;
    cfg.beta = opt.noniid ? 1.0 : 0.0;
    cfg.seed = opt.seed;
    std::vector<Dataset> raw = GenerateSyntheticFederated(cfg);
    std::vector<Dataset> tests;
    for (Dataset& d : raw) {
      auto [train, test] =
          d.RandomSplit(static_cast<double>(holdout) /
                            cfg.samples_per_client,
                        &rng);
      w.clients.push_back(std::move(train));
      tests.push_back(std::move(test));
    }
    std::vector<const Dataset*> parts;
    for (const Dataset& t : tests) parts.push_back(&t);
    w.test = Dataset::Concat(parts);
    w.model = std::make_unique<LogisticRegression>(60, 10, 1e-3);
  } else {
    SimulatedImageConfig icfg;
    icfg.family = which == PaperDataset::kMnist ? ImageFamily::kMnist
                  : which == PaperDataset::kFashionMnist
                      ? ImageFamily::kFashionMnist
                      : ImageFamily::kCifar10;
    icfg.image_side = 8;
    icfg.num_samples = opt.num_clients * opt.samples_per_client;
    icfg.seed = opt.seed;
    Dataset pool = GenerateSimulatedImages(icfg);
    icfg.num_samples = opt.test_samples;
    icfg.seed = opt.seed ^ 0x7E57ULL;  // fresh draw, same distribution
    w.test = GenerateSimulatedImages(icfg);

    if (opt.noniid) {
      w.clients = PartitionByLabelShards(pool, opt.num_clients, 2, &rng);
    } else {
      w.clients = PartitionIid(pool, opt.num_clients, &rng);
    }

    if (which == PaperDataset::kMnist) {
      w.model = std::make_unique<Mlp>(
          std::vector<size_t>{pool.dim(), 32, 10}, 1e-4);
    } else {
      CnnConfig ccfg;
      ccfg.image_side = 8;
      ccfg.channels = which == PaperDataset::kCifar10 ? 3 : 1;
      ccfg.num_filters = 6;
      ccfg.num_classes = 10;
      ccfg.l2_penalty = 1e-4;
      w.model = std::make_unique<Cnn>(ccfg);
    }
  }
  w.model_name = w.model->name();
  return w;
}

/// True if the binary was invoked with --full (paper-scale parameters).
inline bool FullScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  return false;
}

/// Prints the standard bench header: what the figure shows and at what
/// scale this run reproduces it.
inline void PrintHeader(const std::string& figure,
                        const std::string& description, bool full_scale) {
  std::printf("== %s ==\n%s\nscale: %s (pass --full for paper-scale)\n\n",
              figure.c_str(), description.c_str(),
              full_scale ? "paper (--full)" : "reduced default");
}

/// Value of an integer flag `--<name>=<v>`, or `fallback` when absent.
inline int IntFlag(int argc, char** argv, const std::string& name,
                   int fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoi(argv[i] + prefix.size());
    }
  }
  return fallback;
}

/// The thread count benches compare against single-threaded runs:
/// --threads=K if given, else 4 (the acceptance point of the perf
/// trajectory; oversubscription on smaller machines is harmless).
inline int BenchThreads(int argc, char** argv) {
  return IntFlag(argc, argv, "threads", 4);
}

/// Collects flat records of numeric/string fields and writes
/// machine-readable `BENCH_<name>.json` next to the binary's cwd — the
/// perf-trajectory artifact consumed by tooling (one file per bench).
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string name) : name_(std::move(name)) {
    Meta("bench", name_);
    Meta("hardware_concurrency",
         static_cast<double>(std::thread::hardware_concurrency()));
  }

  void Meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, Quote(value));
  }
  void Meta(const std::string& key, double value) {
    meta_.emplace_back(key, Num(value));
  }

  /// Starts a new record; subsequent Field() calls attach to it.
  void BeginRecord() { records_.emplace_back(); }
  void Field(const std::string& key, double value) {
    records_.back().emplace_back(key, Num(value));
  }
  void Field(const std::string& key, const std::string& value) {
    records_.back().emplace_back(key, Quote(value));
  }
  void Field(const std::string& key, bool value) {
    records_.back().emplace_back(key, value ? "true" : "false");
  }
  // Without this overload a string literal would convert to bool above.
  void Field(const std::string& key, const char* value) {
    records_.back().emplace_back(key, Quote(value));
  }

  std::string ToJson() const {
    std::ostringstream out;
    out << "{\n";
    for (const auto& [k, v] : meta_) {
      out << "  " << Quote(k) << ": " << v << ",\n";
    }
    out << "  \"results\": [";
    for (size_t r = 0; r < records_.size(); ++r) {
      out << (r == 0 ? "\n" : ",\n") << "    {";
      const auto& fields = records_[r];
      for (size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) out << ", ";
        out << Quote(fields[f].first) << ": " << fields[f].second;
      }
      out << "}";
    }
    out << "\n  ]\n}\n";
    return out.str();
  }

  /// Writes BENCH_<name>.json; returns true on success and logs the path.
  bool WriteFile() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream file(path);
    if (!file) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return false;
    }
    file << ToJson();
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string Num(double v) {
    if (!std::isfinite(v)) return "null";  // JSON has no inf/nan tokens
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

}  // namespace bench
}  // namespace comfedsv

#endif  // COMFEDSV_BENCH_BENCH_COMMON_H_
