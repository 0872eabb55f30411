// Ablation: completion-solver choice (ALS vs CCD++) and the
// temporal-smoothness extension, on a real utility-matrix completion
// problem. Reports the relative error against the fully observed matrix,
// the observed-entry RMSE, and the solve time.
#include <cmath>

#include "bench_common.h"

namespace comfedsv {

int AblationSolverMain(int argc, char** argv) {
  const bool full = bench::FullScale(argc, argv);
  bench::PrintHeader(
      "Ablation: completion solver",
      "ALS with and without temporal smoothing, and CCD++, on the\n"
      "MNIST-sim utility-matrix completion problem (rank 3).",
      full);

  const int num_clients = 10;
  const int rounds = full ? 60 : 25;

  bench::WorkloadOptions opt;
  opt.num_clients = num_clients;
  opt.samples_per_client = 80;
  opt.test_samples = 100;
  opt.noniid = true;
  opt.seed = 333;
  bench::Workload w =
      bench::MakeWorkload(bench::PaperDataset::kMnist, opt);

  FedAvgConfig fcfg;
  fcfg.num_rounds = rounds;
  fcfg.clients_per_round = 3;
  fcfg.select_all_first_round = true;
  fcfg.lr = LearningRateSchedule::InverseDecay(0.5, 1.0);
  fcfg.seed = 335;

  GroundTruthEvaluator full_recorder(w.model.get(), &w.test, num_clients);
  ObservedUtilityRecorder observed(w.model.get(), &w.test, num_clients);
  FanoutObserver fanout;
  fanout.Register(&full_recorder);
  fanout.Register(&observed);
  FedAvgTrainer trainer(w.model.get(), w.clients, w.test, fcfg);
  COMFEDSV_CHECK_OK(trainer.Train(&fanout).status());

  Matrix reference = full_recorder.UtilityMatrix();
  ObservationSet obs = observed.BuildObservations();

  auto relative_error = [&](const CompletionResult& fit) {
    double err_sq = 0.0;
    for (size_t t = 0; t < reference.rows(); ++t) {
      for (uint32_t mask = 0; mask < reference.cols(); ++mask) {
        Coalition c(num_clients);
        for (int i = 0; i < num_clients; ++i) {
          if (mask & (1u << i)) c.Add(i);
        }
        const double d =
            reference(t, mask) -
            fit.Predict(static_cast<int>(t),
                        observed.interner().Find(c));
        err_sq += d * d;
      }
    }
    return std::sqrt(err_sq) / reference.FrobeniusNorm();
  };

  Table table({"solver", "temporal mu", "rel. error", "observed RMSE",
               "iters", "secs"});
  for (CompletionSolver solver :
       {CompletionSolver::kAls, CompletionSolver::kCcd}) {
    for (double mu : {0.0, 0.1}) {
      if (solver != CompletionSolver::kAls && mu > 0.0) {
        continue;  // smoothing is implemented for ALS only
      }
      CompletionConfig ccfg;
      ccfg.rank = 3;
      ccfg.lambda = 1e-4;
      ccfg.temporal_smoothing = mu;
      ccfg.max_iters = 300;
      ccfg.solver = solver;
      ccfg.seed = 99;
      Stopwatch timer;
      Result<CompletionResult> fit = CompleteMatrix(obs, ccfg);
      COMFEDSV_CHECK_OK(fit.status());
      table.AddRow({CompletionSolverName(solver), Table::Num(mu, 2),
                    Table::Num(relative_error(fit.value()), 4),
                    Table::Num(fit.value().observed_rmse, 4),
                    std::to_string(fit.value().iterations),
                    Table::Num(timer.ElapsedSeconds(), 3)});
    }
  }
  std::printf("%s\n", table.ToText().c_str());
  std::printf(
      "Check: temporal smoothing (mu=0.1) is the decisive stabilizer for\n"
      "ALS on this observation pattern; CCD++ is the robust paper-faithful\n"
      "fallback without it.\n");
  return 0;
}

}  // namespace comfedsv

int main(int argc, char** argv) {
  return comfedsv::AblationSolverMain(argc, argv);
}
