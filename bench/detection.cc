// Adversarial-client detection harness: can FedSV / ComFedSV valuations
// *find* the attackers? For each (attack kind, severity) cell, a small
// federated run is repeated over several seeds with two adversarial
// clients injected; every client is scored by its negated valuation
// (lower value => more suspicious) and the pooled scores are reduced to
// a Mann-Whitney ROC/AUC against the ground-truth adversary labels.
// AUC 1.0 means the valuation ranks every adversary below every honest
// client; 0.5 is chance.
//
// Three detectors share each training trajectory where possible:
//   * fedsv        — per-round exact restricted Shapley (Wang et al.)
//   * comfedsv     — completed-matrix Shapley, kFull observation
//   * comfedsv-spl — completed-matrix Shapley, kSampled observation
//
// Each scenario also reports the fairness shape of the valuation vector
// (Jain's index, coefficient of variation, worst-case gap — see
// src/metrics/fairness.h): a detectable attack should *lower* Jain and
// raise the spread relative to the honest baseline.
//
// BENCH_detection.json sections:
//   * "roc"      — one record per (attack, severity, detector) with the
//                  pooled AUC and per-repetition quarantine counts
//   * "fairness" — one record per (attack, severity, detector) plus the
//                  honest baseline rows
//   * "auc_gate" — per attack at max severity: best-detector AUC and a
//                  pass flag (AUC >= 0.9); a final summary record
//                  asserting >= 2 attack kinds pass. The binary exits
//                  with status 1 if the gate fails, so CI cannot
//                  silently regress detection power.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"

namespace comfedsv {
namespace {

constexpr int kNumClients = 8;
// Two adversaries, deliberately not adjacent and not client 0 (client 0
// anchors the label-shard ordering in other benches; mid-range ids keep
// the cell generic).
const std::vector<int> kAdversaries = {1, 5};
const std::vector<const char*> kAttacks = {"free_rider", "grad_scaler",
                                           "label_flip", "nan_corrupter"};
const std::vector<double> kSeverities = {0.25, 0.5, 1.0};

/// Maps the normalized severity in (0, 1] onto each attack's natural
/// knob. Severity 1.0 is the most detectable variant of the attack,
/// lower severities are progressively stealthier.
AdversarySpec MakeSpec(const std::string& attack, double severity,
                       int client) {
  AdversarySpec spec;
  spec.client = client;
  if (attack == "free_rider") {
    // The pure free-rider echoes the global model; lower severity hides
    // it behind Gaussian camouflage noise.
    spec.kind = AdversaryKind::kFreeRider;
    spec.intensity = 1.0;
    spec.camouflage = 0.05 * (1.0 - severity);
  } else if (attack == "grad_scaler") {
    // Boosting attack: scale the honest delta by up to 10x.
    spec.kind = AdversaryKind::kGradientScaler;
    spec.intensity = 1.0 + 9.0 * severity;
  } else if (attack == "label_flip") {
    // Up to half the labels flipped (beyond 0.5 the class structure
    // inverts and the attack starts teaching a consistent wrong map).
    spec.kind = AdversaryKind::kLabelFlipper;
    spec.intensity = 0.5 * severity;
  } else {
    // Malformed updates: a severity-sized prefix of NaN/Inf. The
    // aggregation guard sanitizes these, so what detection sees is the
    // guard's zero-information substitute.
    spec.kind = AdversaryKind::kNanCorrupter;
    spec.intensity = severity;
  }
  return spec;
}

struct CellRun {
  Vector fedsv;
  Vector comfedsv_full;
  Vector comfedsv_sampled;
  int64_t rejected_updates = 0;   ///< guard rejections over the run
  int64_t quarantine_drops = 0;   ///< preemptive quarantine exclusions
};

/// One federated run of the cell. `attack` == nullptr is the honest
/// baseline. The training trajectory is shared by the fedsv and
/// comfedsv-full detectors; the sampled detector re-trains the same
/// deterministic trajectory with its own observation pattern.
CellRun RunCell(const bench::Workload& w, const char* attack,
                double severity, int rep) {
  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = 6;
  fed_cfg.local_steps = 3;
  fed_cfg.lr = LearningRateSchedule::Constant(0.3);
  fed_cfg.selector = SelectorKind::kUniform;
  fed_cfg.clients_per_round = kNumClients;  // full participation
  fed_cfg.select_all_first_round = true;    // Assumption 1 (kFull)
  fed_cfg.seed = 9100 + 17 * static_cast<uint64_t>(rep);
  // Guard defaults: reject_nonfinite on, quarantine after 3 strikes —
  // the nan_corrupter cell exercises the degraded path end to end.
  fed_cfg.guard.quarantine_after = 3;
  if (attack != nullptr) {
    for (int client : kAdversaries) {
      fed_cfg.adversary.specs.push_back(
          MakeSpec(attack, severity, client));
    }
    fed_cfg.adversary.seed = fed_cfg.seed ^ 0xAD5EEDULL;
  }

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.fedsv.seed = fed_cfg.seed + 1;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kFull;
  request.comfedsv.completion.rank = 3;
  request.comfedsv.completion.lambda = 1e-4;
  request.comfedsv.completion.temporal_smoothing = 0.1;
  request.comfedsv.completion.max_iters = 120;
  request.comfedsv.completion.seed = fed_cfg.seed + 2;
  request.comfedsv.seed = fed_cfg.seed + 3;

  Result<ValuationOutcome> full = RunValuation(
      *w.model, w.clients, w.test, fed_cfg, request);
  COMFEDSV_CHECK_OK(full.status());

  request.compute_fedsv = false;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 4 * kNumClients;
  Result<ValuationOutcome> sampled = RunValuation(
      *w.model, w.clients, w.test, fed_cfg, request);
  COMFEDSV_CHECK_OK(sampled.status());

  CellRun out;
  out.fedsv = *full.value().fedsv_values;
  out.comfedsv_full = full.value().comfedsv->values;
  out.comfedsv_sampled = sampled.value().comfedsv->values;
  const QuarantineReport& q = full.value().training.quarantine;
  for (int64_t r : q.rejected) out.rejected_updates += r;
  for (int64_t d : q.quarantine_drops) out.quarantine_drops += d;
  return out;
}

/// Mann-Whitney ROC/AUC of `scores` against binary `labels`, ties
/// resolved by average ranks (so a constant score vector yields exactly
/// 0.5, not an ordering artifact).
double RocAuc(const std::vector<double>& scores,
              const std::vector<int>& labels) {
  const std::vector<double> ranks = AverageRanks(scores);
  double rank_sum = 0.0;
  int positives = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (labels[i] == 1) {
      rank_sum += ranks[i];
      ++positives;
    }
  }
  const int negatives = static_cast<int>(scores.size()) - positives;
  COMFEDSV_CHECK(positives > 0 && negatives > 0);
  const double u = rank_sum - 0.5 * positives * (positives + 1.0);
  return u / (static_cast<double>(positives) * negatives);
}

struct DetectorPool {
  std::vector<double> scores;  ///< negated valuations, pooled over reps
  std::vector<int> labels;
  double jain_sum = 0.0;
  double cov_sum = 0.0;
  double gap_sum = 0.0;
  int fairness_runs = 0;

  void Absorb(const Vector& values) {
    for (int i = 0; i < kNumClients; ++i) {
      scores.push_back(-values[i]);
      labels.push_back(std::count(kAdversaries.begin(),
                                  kAdversaries.end(), i) > 0
                           ? 1
                           : 0);
    }
    const Result<FairnessReport> fairness = ComputeFairness(values);
    COMFEDSV_CHECK_OK(fairness.status());
    jain_sum += fairness.value().jain_index;
    // A degenerate zero-mean vector reports cov = +inf; clamp into the
    // JSON-representable range rather than dropping the record.
    cov_sum += std::min(fairness.value().coefficient_of_variation, 1e6);
    gap_sum += fairness.value().worst_case_gap;
    ++fairness_runs;
  }
};

int DetectionMain(int argc, char** argv) {
  const bool full = bench::FullScale(argc, argv);
  bench::PrintHeader(
      "Adversary detection",
      "ROC/AUC of FedSV vs ComFedSV valuations at flagging injected\n"
      "adversarial clients, per attack kind and severity.",
      full);
  const int repetitions = full ? 8 : 4;

  bench::WorkloadOptions opt;
  opt.num_clients = kNumClients;
  opt.samples_per_client = full ? 80 : 40;
  opt.test_samples = full ? 240 : 120;
  opt.noniid = false;  // IID partition isolates the *attack* signal
  opt.seed = 0xDE7EC7;
  const bench::Workload w =
      bench::MakeWorkload(bench::PaperDataset::kSynthetic, opt);

  bench::BenchJsonWriter json("detection");
  json.Meta("num_clients", static_cast<double>(kNumClients));
  json.Meta("num_adversaries", static_cast<double>(kAdversaries.size()));
  json.Meta("repetitions", static_cast<double>(repetitions));
  json.Meta("dataset", w.dataset_name);
  json.Meta("model", w.model_name);

  const std::vector<const char*> detectors = {"fedsv", "comfedsv",
                                              "comfedsv-spl"};

  // Honest baseline fairness rows (no ROC — there are no positives).
  {
    std::map<std::string, DetectorPool> pools;
    for (int rep = 0; rep < repetitions; ++rep) {
      const CellRun run = RunCell(w, nullptr, 0.0, rep);
      pools["fedsv"].Absorb(run.fedsv);
      pools["comfedsv"].Absorb(run.comfedsv_full);
      pools["comfedsv-spl"].Absorb(run.comfedsv_sampled);
    }
    for (const char* detector : detectors) {
      const DetectorPool& pool = pools[detector];
      json.BeginRecord();
      json.Field("section", "fairness");
      json.Field("attack", "honest");
      json.Field("severity", 0.0);
      json.Field("detector", detector);
      json.Field("jain_index", pool.jain_sum / pool.fairness_runs);
      json.Field("coefficient_of_variation",
                 pool.cov_sum / pool.fairness_runs);
      json.Field("worst_case_gap", pool.gap_sum / pool.fairness_runs);
    }
    std::printf("honest baseline: jain fedsv %.3f  comfedsv %.3f\n\n",
                pools["fedsv"].jain_sum / repetitions,
                pools["comfedsv"].jain_sum / repetitions);
  }

  // attack -> detector -> AUC at the highest severity.
  std::map<std::string, std::map<std::string, double>> max_severity_auc;

  std::printf("%-14s %8s %10s %10s %12s %10s\n", "attack", "severity",
              "fedsv", "comfedsv", "comfedsv-spl", "rejected");
  for (const char* attack : kAttacks) {
    for (double severity : kSeverities) {
      std::map<std::string, DetectorPool> pools;
      int64_t rejected = 0;
      int64_t drops = 0;
      for (int rep = 0; rep < repetitions; ++rep) {
        const CellRun run = RunCell(w, attack, severity, rep);
        pools["fedsv"].Absorb(run.fedsv);
        pools["comfedsv"].Absorb(run.comfedsv_full);
        pools["comfedsv-spl"].Absorb(run.comfedsv_sampled);
        rejected += run.rejected_updates;
        drops += run.quarantine_drops;
      }
      std::map<std::string, double> auc;
      for (const char* detector : detectors) {
        const DetectorPool& pool = pools[detector];
        auc[detector] = RocAuc(pool.scores, pool.labels);

        json.BeginRecord();
        json.Field("section", "roc");
        json.Field("attack", attack);
        json.Field("severity", severity);
        json.Field("detector", detector);
        json.Field("auc", auc[detector]);
        json.Field("pooled_points",
                   static_cast<double>(pool.scores.size()));
        json.Field("rejected_updates", static_cast<double>(rejected));
        json.Field("quarantine_drops", static_cast<double>(drops));

        json.BeginRecord();
        json.Field("section", "fairness");
        json.Field("attack", attack);
        json.Field("severity", severity);
        json.Field("detector", detector);
        json.Field("jain_index", pool.jain_sum / pool.fairness_runs);
        json.Field("coefficient_of_variation",
                   pool.cov_sum / pool.fairness_runs);
        json.Field("worst_case_gap", pool.gap_sum / pool.fairness_runs);
      }
      if (severity == kSeverities.back()) {
        max_severity_auc[attack] = auc;
      }
      std::printf("%-14s %8.2f %10.3f %10.3f %12.3f %10lld\n", attack,
                  severity, auc["fedsv"], auc["comfedsv"],
                  auc["comfedsv-spl"], static_cast<long long>(rejected));
    }
  }

  // The acceptance gate: at the highest severity, at least two attack
  // kinds must be detected with AUC >= 0.9 by the best detector.
  int attacks_passing = 0;
  std::printf("\nauc gate (best detector at severity %.2f):\n",
              kSeverities.back());
  for (const char* attack : kAttacks) {
    double best_auc = 0.0;
    std::string best_detector;
    for (const auto& [detector, auc] : max_severity_auc[attack]) {
      if (auc > best_auc) {
        best_auc = auc;
        best_detector = detector;
      }
    }
    const bool pass = best_auc >= 0.9;
    attacks_passing += pass ? 1 : 0;
    json.BeginRecord();
    json.Field("section", "auc_gate");
    json.Field("attack", attack);
    json.Field("severity", kSeverities.back());
    json.Field("best_detector", best_detector);
    json.Field("best_auc", best_auc);
    json.Field("pass", pass);
    std::printf("  %-14s best=%s auc=%.3f  %s\n", attack,
                best_detector.c_str(), best_auc,
                pass ? "PASS" : "fail");
  }
  json.BeginRecord();
  json.Field("section", "auc_gate");
  json.Field("attack", "summary");
  json.Field("attacks_passing", static_cast<double>(attacks_passing));
  json.Field("required", 2.0);
  json.Field("pass", attacks_passing >= 2);
  std::printf("attacks passing: %d (need >= 2)\n", attacks_passing);

  if (!json.WriteFile()) return 1;
  // Gate: a regression in detection power fails the bench run with exit
  // status 1 (a clean failure, not a CHECK abort).
  return attacks_passing >= 2 ? 0 : 1;
}

}  // namespace
}  // namespace comfedsv

int main(int argc, char** argv) {
  return comfedsv::DetectionMain(argc, argv);
}
