// Figure 3 / Example 3: impact of the rank parameter r on the quality of
// the low-rank completion of the utility matrix.
//
// Trains the MLP on MNIST-sim (10 clients, 3 selected per round),
// records BOTH the full utility matrix (reference) and the observed
// entries, solves completion problem (9) for r in {1..10}, and prints the
// relative difference ||U - W H^T||_F / ||U||_F the paper plots.
#include <cmath>
#include <optional>

#include "bench_common.h"

namespace comfedsv {

int Fig3Main(int argc, char** argv) {
  const bool full = bench::FullScale(argc, argv);
  // Exploration knobs: --lambda=X, --mu=X and --solver=als|ccd override
  // the defaults below. Temporal smoothing is ALS-only, so mu defaults
  // to 0.1 under ALS and to 0 under CCD++.
  double lambda = 1e-4;
  std::optional<double> mu_flag;
  CompletionSolver solver = CompletionSolver::kAls;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--lambda=", 9) == 0) {
      lambda = std::atof(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--mu=", 5) == 0) {
      mu_flag = std::atof(argv[i] + 5);
    } else if (std::strcmp(argv[i], "--solver=als") == 0) {
      solver = CompletionSolver::kAls;
    } else if (std::strcmp(argv[i], "--solver=ccd") == 0) {
      solver = CompletionSolver::kCcd;
    } else if (std::strncmp(argv[i], "--solver=", 9) == 0) {
      std::fprintf(stderr, "unknown %s (expected als or ccd)\n", argv[i]);
      return 2;
    }
  }
  const double mu =
      mu_flag.value_or(solver == CompletionSolver::kAls ? 0.1 : 0.0);
  CompletionConfig base;
  base.solver = solver;
  base.lambda = lambda;
  base.temporal_smoothing = mu;
  base.max_iters = 300;
  if (Status valid = ValidateCompletionConfig(base); !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }

  bench::PrintHeader(
      "Figure 3 (and Example 3)",
      "Relative error of the rank-r completion of the utility matrix\n"
      "vs the fully observed reference, for r = 1..10.\n"
      "solver: " + CompletionSolverName(solver) +
          ", lambda: " + Table::Num(lambda) +
          ", temporal mu: " + Table::Num(mu),
      full);

  const int num_clients = 10;
  const int rounds = full ? 100 : 30;

  bench::WorkloadOptions opt;
  opt.num_clients = num_clients;
  opt.samples_per_client = full ? 120 : 80;
  opt.test_samples = full ? 200 : 100;
  opt.noniid = true;
  opt.seed = 33;
  bench::Workload w =
      bench::MakeWorkload(bench::PaperDataset::kMnist, opt);

  FedAvgConfig fcfg;
  fcfg.num_rounds = rounds;
  fcfg.clients_per_round = 3;
  fcfg.select_all_first_round = true;  // Assumption 1
  // Decaying schedule (Prop. 2): successive global models move slowly,
  // which is what makes successive utility-matrix rows similar and the
  // completion well-posed.
  fcfg.lr = LearningRateSchedule::InverseDecay(/*mu=*/0.5,
                                               /*smoothness=*/1.0);
  fcfg.seed = 35;

  GroundTruthEvaluator full_recorder(w.model.get(), &w.test, num_clients);
  ObservedUtilityRecorder observed(w.model.get(), &w.test, num_clients);
  FanoutObserver fanout;
  fanout.Register(&full_recorder);
  fanout.Register(&observed);
  FedAvgTrainer trainer(w.model.get(), w.clients, w.test, fcfg);
  COMFEDSV_CHECK_OK(trainer.Train(&fanout).status());

  Matrix reference = full_recorder.UtilityMatrix();
  ObservationSet obs = observed.BuildObservations();
  std::printf("observed density: %.4f (%zu of %d x %d entries)\n\n",
              obs.Density(), obs.size(), obs.num_rows(), obs.num_cols());

  Table table({"rank r", "relative diff ||U-WH'||/||U||", "observed RMSE",
               "iters"});
  for (int r = 1; r <= 10; ++r) {
    CompletionConfig ccfg = base;
    ccfg.rank = r;
    ccfg.seed = 100 + r;
    Result<CompletionResult> fit = CompleteMatrix(obs, ccfg);
    COMFEDSV_CHECK_OK(fit.status());

    // Assemble W H^T in the reference's (bitmask) column order.
    double err_sq = 0.0;
    for (size_t t = 0; t < reference.rows(); ++t) {
      for (uint32_t mask = 0; mask < reference.cols(); ++mask) {
        Coalition c(num_clients);
        for (int i = 0; i < num_clients; ++i) {
          if (mask & (1u << i)) c.Add(i);
        }
        const int col = observed.interner().Find(c);
        COMFEDSV_CHECK_GE(col, 0);
        const double d =
            reference(t, mask) -
            fit.value().Predict(static_cast<int>(t), col);
        err_sq += d * d;
      }
    }
    const double rel = std::sqrt(err_sq) / reference.FrobeniusNorm();
    table.AddRow({std::to_string(r), Table::Num(rel),
                  Table::Num(fit.value().observed_rmse),
                  std::to_string(fit.value().iterations)});
  }
  std::printf("%s\n", table.ToText().c_str());
  std::printf(
      "Shape check vs paper: error drops steeply for small r, then\n"
      "flattens/worsens slightly for large r (overfitting), as in "
      "Fig. 3.\n");
  return 0;
}

}  // namespace comfedsv

int main(int argc, char** argv) { return comfedsv::Fig3Main(argc, argv); }
