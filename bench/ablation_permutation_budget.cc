// Ablation: Monte-Carlo permutation budget M of Algorithm 1.
//
// Sweeps M and reports the Spearman correlation between the sampled
// ComFedSV and the exact (full Def. 4) ComFedSV computed on the same
// training run — quantifying the O(N log N) sample-complexity claim of
// Sec. VI-E empirically.
#include "bench_common.h"

namespace comfedsv {

int AblationPermutationsMain(int argc, char** argv) {
  const bool full = bench::FullScale(argc, argv);
  bench::PrintHeader(
      "Ablation: Algorithm 1 permutation budget",
      "Rank agreement (Spearman) of sampled ComFedSV with the exact\n"
      "Def. 4 values as the number of sampled permutations M grows.",
      full);

  const int num_clients = 8;
  const int rounds = full ? 20 : 12;

  bench::WorkloadOptions opt;
  opt.num_clients = num_clients;
  opt.samples_per_client = 70;
  opt.test_samples = 100;
  opt.noniid = true;
  opt.seed = 444;
  bench::Workload w =
      bench::MakeWorkload(bench::PaperDataset::kMnist, opt);
  // Heterogeneous client quality so there is a real ranking to recover.
  Rng noise_rng(445);
  for (int i = 0; i < num_clients; ++i) {
    FlipLabels(&w.clients[i], 0.1 * i, &noise_rng);
  }

  FedAvgConfig fcfg;
  fcfg.num_rounds = rounds;
  fcfg.clients_per_round = 3;
  fcfg.select_all_first_round = true;
  fcfg.lr = LearningRateSchedule::Constant(0.3);
  fcfg.seed = 447;

  CompletionConfig completion;
  completion.rank = 3;
  completion.lambda = 1e-4;
  completion.temporal_smoothing = 0.1;
  completion.max_iters = 150;

  // Exact reference on this run.
  ComFedSvConfig exact_cfg;
  exact_cfg.mode = ComFedSvConfig::Mode::kFull;
  exact_cfg.completion = completion;
  ComFedSvEvaluator exact_eval(w.model.get(), &w.test, num_clients,
                               exact_cfg);

  std::vector<int> budgets = {4, 8, 16, 32, 64, 128};
  std::vector<std::unique_ptr<ComFedSvEvaluator>> sampled_evals;
  FanoutObserver fanout;
  fanout.Register(&exact_eval);
  for (int m : budgets) {
    ComFedSvConfig cfg;
    cfg.mode = ComFedSvConfig::Mode::kSampled;
    cfg.num_permutations = m;
    cfg.completion = completion;
    cfg.seed = 1000 + m;
    sampled_evals.push_back(std::make_unique<ComFedSvEvaluator>(
        w.model.get(), &w.test, num_clients, cfg));
    fanout.Register(sampled_evals.back().get());
  }

  FedAvgTrainer trainer(w.model.get(), w.clients, w.test, fcfg);
  COMFEDSV_CHECK_OK(trainer.Train(&fanout).status());

  Result<ComFedSvOutput> exact = exact_eval.Finalize();
  COMFEDSV_CHECK_OK(exact.status());
  std::vector<double> exact_values(exact.value().values.begin(),
                                   exact.value().values.end());

  const int suggested = DefaultPermutationBudget(num_clients);
  Table table({"M", "spearman vs exact", "loss calls", "columns"});
  for (size_t b = 0; b < budgets.size(); ++b) {
    Result<ComFedSvOutput> out = sampled_evals[b]->Finalize();
    COMFEDSV_CHECK_OK(out.status());
    std::vector<double> v(out.value().values.begin(),
                          out.value().values.end());
    Result<double> rho = SpearmanCorrelation(exact_values, v);
    table.AddRow({std::to_string(budgets[b]),
                  rho.ok() ? Table::Num(rho.value(), 3) : "n/a",
                  std::to_string(out.value().stats.loss_calls),
                  std::to_string(out.value().num_columns)});
  }
  std::printf("%s\n", table.ToText().c_str());
  std::printf("Sec. VI-E suggests M = O(N log N) ~ %d for N = %d.\n"
              "Check: agreement rises with M and saturates around the\n"
              "suggested budget.\n",
              suggested, num_clients);
  return 0;
}

}  // namespace comfedsv

int main(int argc, char** argv) {
  return comfedsv::AblationPermutationsMain(argc, argv);
}
