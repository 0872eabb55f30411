// Completion-engine bench: wall time and entries/sec of the ALS and CCD++
// solvers on synthetic utility-matrix completion problems shaped like
// the sampled (Algorithm 1) pipeline — m ∈ {16,32,64} clients,
// T ∈ {50,200} rounds, observation density ∈ {1%,5%,20%} — at 1 thread
// and --threads (default 4), asserting bit-identical factors across
// thread counts.
//
// Writes BENCH_completion.json.
#include <cmath>
#include <limits>
#include <vector>

#include "bench_common.h"

namespace comfedsv {
namespace {

// A sampled-mode-shaped completion problem: T rounds x (one column per
// distinct permutation prefix, ~ m log2(m) of them), rank-5 ground truth,
// row-major Bernoulli sampling with at least one observation per row.
ObservationSet MakeProblem(int rows, int cols, double density,
                           uint64_t seed) {
  const int true_rank = 5;
  Rng rng(seed);
  Matrix a(rows, true_rank), b(true_rank, cols);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < true_rank; ++k) a(i, k) = rng.NextGaussian();
  }
  for (int k = 0; k < true_rank; ++k) {
    for (size_t j = 0; j < b.cols(); ++j) b(k, j) = rng.NextGaussian();
  }
  Matrix truth = Matrix::Multiply(a, b);
  ObservationSet obs(rows, cols);
  for (int i = 0; i < rows; ++i) {
    bool any = false;
    for (int j = 0; j < cols; ++j) {
      if (rng.NextBernoulli(density)) {
        obs.Add(i, j, truth(i, j));
        any = true;
      }
    }
    if (!any) {
      // Keep every round observed at least once, like the empty-
      // coalition anchor does in the real recorders; appended at the end
      // of the row so the set stays row-major.
      const int j = static_cast<int>(rng.NextUint64(cols));
      obs.Add(i, j, truth(i, j));
    }
  }
  obs.Finalize();
  return obs;
}

struct SolverVariant {
  const char* name;
  CompletionSolver solver;
  double mu;
};

}  // namespace

int CompletionSolversMain(int argc, char** argv) {
  const bool full = bench::FullScale(argc, argv);
  const int threads = bench::BenchThreads(argc, argv);
  bench::PrintHeader(
      "Completion solvers",
      "Throughput of the compressed-sparse completion engine (ALS,\n"
      "CCD++) across client counts, round counts and observation\n"
      "densities, at 1 and N threads.",
      full);

  bench::BenchJsonWriter json("completion");
  json.Meta("threads_compared", static_cast<double>(threads));
  const int rank = 5;
  // Sweep cost is isolated by iteration differencing: each solver runs
  // at iters_lo and iters_hi sweeps (min wall time over `repeats` runs
  // each) and the per-sweep time is the slope. This removes the init /
  // staged-warm-start / final-report costs, and min-of-N tames
  // scheduler noise.
  const int iters_lo = 5;
  const int iters_hi = full ? 50 : 25;
  const int repeats = full ? 5 : 3;
  json.Meta("rank", static_cast<double>(rank));
  json.Meta("iters_lo", static_cast<double>(iters_lo));
  json.Meta("iters_hi", static_cast<double>(iters_hi));
  json.Meta("repeats", static_cast<double>(repeats));

  const SolverVariant variants[] = {
      {"als", CompletionSolver::kAls, 0.0},
      {"als+mu", CompletionSolver::kAls, 0.1},
      {"ccd++", CompletionSolver::kCcd, 0.0},
  };

  ExecutionContext threaded(threads);
  bool all_identical = true;

  Table table({"m", "T", "cols", "density", "nnz", "solver", "1t secs",
               std::to_string(threads) + "t secs", "speedup", "entries/s"});
  for (int m : {16, 32, 64}) {
    // One column per distinct Algorithm-1 permutation prefix,
    // ~ m * log2(m), plus the empty-coalition anchor.
    const int cols =
        m * static_cast<int>(std::ceil(std::log2(static_cast<double>(m)))) +
        1;
    for (int rows : {50, 200}) {
      for (double density : {0.01, 0.05, 0.2}) {
        ObservationSet obs = MakeProblem(
            rows, cols, density,
            static_cast<uint64_t>(m * 1000 + rows + density * 100));
        const double nnz = static_cast<double>(obs.size());

        for (const SolverVariant& v : variants) {
          CompletionConfig cfg;
          cfg.rank = rank;
          cfg.lambda = 1e-3;
          cfg.max_iters = iters_hi;
          // Never converge early: the differenced sweep timing divides
          // by (iters_hi - iters_lo), so every run must execute exactly
          // max_iters sweeps (tolerance 0 would still stop once the
          // objective plateaus; -inf never fires).
          cfg.tolerance = -std::numeric_limits<double>::infinity();
          cfg.temporal_smoothing = v.mu;
          cfg.solver = v.solver;
          cfg.seed = 4242;
          CompletionConfig cfg_lo = cfg;
          cfg_lo.max_iters = iters_lo;

          auto min_secs = [&](const CompletionConfig& c,
                              ExecutionContext* ctx,
                              Result<CompletionResult>* last) {
            double best = 1e30;
            for (int r = 0; r < repeats; ++r) {
              Stopwatch t;
              Result<CompletionResult> fit = CompleteMatrix(obs, c, ctx);
              best = std::min(best, t.ElapsedSeconds());
              COMFEDSV_CHECK_OK(fit.status());
              if (last != nullptr) *last = std::move(fit);
            }
            return best;
          };

          Result<CompletionResult> fit1 = Status::Internal("unset");
          Result<CompletionResult> fitn = Status::Internal("unset");
          const double secs_lo = min_secs(cfg_lo, nullptr, nullptr);
          const double secs_1t = min_secs(cfg, nullptr, &fit1);
          const double secs_nt = min_secs(cfg, &threaded, &fitn);
          COMFEDSV_CHECK_EQ(fit1.value().iterations, iters_hi);
          const double sweep_secs =
              std::max(1e-9, (secs_1t - secs_lo) / (iters_hi - iters_lo));

          const bool identical = fit1.value().w == fitn.value().w &&
                                 fit1.value().h == fitn.value().h;
          all_identical = all_identical && identical;

          // Observed entries processed per second of one full
          // alternating sweep, single-threaded.
          const double entries_per_sec = nnz / sweep_secs;

          json.BeginRecord();
          json.Field("solver", v.name);
          json.Field("clients", static_cast<double>(m));
          json.Field("rows", static_cast<double>(rows));
          json.Field("cols", static_cast<double>(cols));
          json.Field("density", density);
          json.Field("observed_entries", nnz);
          json.Field("iterations",
                     static_cast<double>(fit1.value().iterations));
          json.Field("seconds_1_thread", secs_1t);
          json.Field("seconds_n_threads", secs_nt);
          json.Field("speedup", secs_1t / secs_nt);
          json.Field("sweep_seconds_1_thread", sweep_secs);
          json.Field("entries_per_sec_1_thread", entries_per_sec);
          json.Field("bit_identical_across_threads", identical);

          table.AddRow(
              {std::to_string(m), std::to_string(rows),
               std::to_string(cols), Table::Num(density, 2),
               std::to_string(static_cast<int>(nnz)), v.name,
               Table::Num(secs_1t, 4), Table::Num(secs_nt, 4),
               Table::Num(secs_1t / secs_nt, 2),
               Table::Num(entries_per_sec, 0)});
        }
      }
    }
  }
  std::printf("%s\n", table.ToText().c_str());
  std::printf("Factors bit-identical across thread counts: %s.\n",
              all_identical ? "yes" : "NO — determinism regression");
  json.Meta("bit_identical_everywhere", all_identical ? 1.0 : 0.0);
  json.WriteFile();
  // Exit status gates determinism only: wall-clock ratios on shared CI
  // runners are too noisy to fail a build on.
  return all_identical ? 0 : 1;
}

}  // namespace comfedsv

int main(int argc, char** argv) {
  return comfedsv::CompletionSolversMain(argc, argv);
}
