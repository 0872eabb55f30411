// Estimator-accuracy bench: MSE versus loss-call budget for every
// permutation sampler (shapley/sampler.h) on an 8-client reference game
// with exact ground truth.
//
// The paper's large-K regime (Sec. VII-D) is pure permutation-sampling
// Monte Carlo, and Fig. 8 measures cost in test-loss evaluations — so
// the question that matters is accuracy *per loss call*, not per
// permutation. This bench plays two closed-form games:
//
//   * "mixed"      — additive weights + curvature in |S| + pairwise
//                    synergies: the positional variance component that
//                    antithetic pairs and position-stratified blocks are
//                    built to cancel, plus identity noise so uniform IID
//                    has honest nonzero MSE.
//   * "saturating" — utility approaches U(grand) geometrically in |S|:
//                    the regime where truncated walks skip the tail's
//                    loss calls at a tolerance-bounded bias.
//
// Loss calls are counted the way the real pipeline counts them: one per
// *distinct* coalition (RoundUtility memoizes within a round), with the
// raw prefix-evaluation count recorded alongside.
//
// Writes BENCH_estimators.json (schema notes in README.md).
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <vector>

#include "bench_common.h"

namespace comfedsv {
namespace bench {
namespace {

constexpr int kPlayers = 8;

// The mixed reference game. Marginal contribution of the player entering
// at position p splits into an identity part (its own weight + synergy
// completions) and a positional part from the curvature terms — the
// latter is what variance-reduced samplers cancel. The sqrt curvature
// (marginal nonlinear in p) and the triple synergy keep the antithetic
// cancellation partial, so every sampler has honest nonzero MSE.
double MixedGame(const Coalition& c) {
  static const double kWeights[kPlayers] = {0.50, 0.65, 0.80, 0.95,
                                            1.10, 1.25, 1.40, 1.55};
  double total = 0.0;
  for (int m : c.Members()) total += kWeights[m];
  const double k = static_cast<double>(c.Count());
  total += 4.0 * (k / kPlayers) * (k / kPlayers);
  total += 1.5 * std::sqrt(k / kPlayers);
  if (c.Contains(0) && c.Contains(7)) total += 0.6;
  if (c.Contains(2) && c.Contains(5)) total += 0.6;
  if (c.Contains(1) && c.Contains(3) && c.Contains(6)) total += 0.9;
  return total;
}

// The saturating reference game: U(S) = 1 - exp(-1.1 |S|) plus tiny
// per-player weights (so players are not fully symmetric) and one small
// pair synergy (so the position-stratified sampler's variance is finite
// instead of exactly zero — a purely positional game is solved exactly
// by one rotation block). Marginals decay geometrically, so a truncated
// walk with a moderate tolerance stops after a handful of positions; the
// synergy is kept below the tolerance so truncation still triggers.
double SaturatingGame(const Coalition& c) {
  const double k = static_cast<double>(c.Count());
  double total = 1.0 - std::exp(-1.1 * k);
  for (int m : c.Members()) total += 0.002 * (m + 1);
  if (c.Contains(0) && c.Contains(3)) total += 0.03;
  return total;
}

// Memoizing utility wrapper with pipeline-style accounting: `loss_calls`
// counts distinct coalitions (what RoundUtility's memo cache would
// charge), `prefix_evals` counts raw utility reads.
struct CountingUtility {
  UtilityFn game;
  std::unordered_map<Coalition, double, CoalitionHash> cache;
  int64_t loss_calls = 0;
  int64_t prefix_evals = 0;

  double operator()(const Coalition& c) {
    ++prefix_evals;
    auto it = cache.find(c);
    if (it != cache.end()) return it->second;
    ++loss_calls;
    const double u = game(c);
    cache.emplace(c, u);
    return u;
  }
};

struct SamplerRun {
  double mse = 0.0;
  double avg_loss_calls = 0.0;
  double avg_prefix_evals = 0.0;
};

// Runs `repetitions` independent estimates at `permutations` orderings
// and returns MSE vs `exact` (mean over players and repetitions) plus
// average spend.
SamplerRun RunSampler(const UtilityFn& game, const Vector& exact,
                      const SamplerConfig& cfg, int permutations,
                      int repetitions, uint64_t seed_base) {
  std::vector<int> players(kPlayers);
  for (int i = 0; i < kPlayers; ++i) players[i] = i;

  SamplerRun out;
  double sq_err = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    CountingUtility counting{game, {}, 0, 0};
    UtilityFn fn = [&counting](const Coalition& c) { return counting(c); };
    Rng rng(seed_base + static_cast<uint64_t>(rep));
    Result<Vector> est = MonteCarloShapley(kPlayers, players, fn,
                                           permutations, &rng,
                                           /*pool=*/nullptr,
                                           /*prefetch=*/nullptr, cfg);
    COMFEDSV_CHECK_OK(est.status());
    for (int i = 0; i < kPlayers; ++i) {
      const double d = est.value()[i] - exact[i];
      sq_err += d * d;
    }
    out.avg_loss_calls += static_cast<double>(counting.loss_calls);
    out.avg_prefix_evals += static_cast<double>(counting.prefix_evals);
  }
  out.mse = sq_err / (static_cast<double>(repetitions) * kPlayers);
  out.avg_loss_calls /= repetitions;
  out.avg_prefix_evals /= repetitions;
  return out;
}

struct GameSpec {
  const char* name;
  UtilityFn game;
  double truncation_tolerance;
};

}  // namespace

int Main(int argc, char** argv) {
  const bool full = FullScale(argc, argv);
  const int repetitions = IntFlag(argc, argv, "reps", full ? 2000 : 400);
  PrintHeader("estimator accuracy vs loss-call budget",
              "MSE of each permutation sampler against exact Shapley "
              "values on the 8-client reference games (Sec. VII-D cost "
              "model: one loss call per distinct coalition)",
              full);

  BenchJsonWriter json("estimators");
  json.Meta("players", static_cast<double>(kPlayers));
  json.Meta("repetitions", static_cast<double>(repetitions));

  std::vector<int> players(kPlayers);
  for (int i = 0; i < kPlayers; ++i) players[i] = i;

  const GameSpec games[] = {
      {"mixed", MixedGame, 1e-3},
      {"saturating", SaturatingGame, 0.08},
  };
  const SamplerKind kinds[] = {
      SamplerKind::kUniformIid, SamplerKind::kAntithetic,
      SamplerKind::kStratified, SamplerKind::kTruncated};
  const int budgets[] = {8, 16, 32, 64, 128};

  for (const GameSpec& spec : games) {
    Result<Vector> exact = ExactShapley(kPlayers, players, spec.game);
    COMFEDSV_CHECK_OK(exact.status());

    std::printf("[%s] tol=%g\n", spec.name, spec.truncation_tolerance);
    std::printf("  %-11s %6s %12s %12s %12s %14s\n", "sampler", "perms",
                "loss_calls", "prefix_evals", "mse", "mse_vs_uniform");
    for (int permutations : budgets) {
      SamplerRun uniform_run;
      for (SamplerKind kind : kinds) {
        SamplerConfig cfg;
        cfg.kind = kind;
        cfg.truncation_tolerance = spec.truncation_tolerance;
        const SamplerRun run =
            RunSampler(spec.game, exact.value(), cfg, permutations,
                       repetitions, /*seed_base=*/0xE57u);
        if (kind == SamplerKind::kUniformIid) uniform_run = run;
        const double ratio =
            run.mse > 0.0 ? uniform_run.mse / run.mse
                          : std::numeric_limits<double>::infinity();

        json.BeginRecord();
        json.Field("game", spec.name);
        json.Field("sampler", SamplerKindName(kind));
        json.Field("permutations", static_cast<double>(permutations));
        json.Field("truncation_tolerance",
                   kind == SamplerKind::kTruncated
                       ? spec.truncation_tolerance
                       : 0.0);
        json.Field("avg_loss_calls", run.avg_loss_calls);
        json.Field("avg_prefix_evals", run.avg_prefix_evals);
        json.Field("mse", run.mse);
        // Both relative fields are fractions of the uniform-IID run at
        // the same permutation budget: < 1 means fewer/less than uniform.
        json.Field("mse_fraction_of_uniform_iid",
                   uniform_run.mse > 0.0 ? run.mse / uniform_run.mse
                                         : 0.0);
        json.Field("loss_calls_fraction_of_uniform_iid",
                   uniform_run.avg_loss_calls > 0.0
                       ? run.avg_loss_calls / uniform_run.avg_loss_calls
                       : 0.0);

        std::printf("  %-11s %6d %12.1f %12.1f %12.4e %13.2fx\n",
                    SamplerKindName(kind), permutations,
                    run.avg_loss_calls, run.avg_prefix_evals, run.mse,
                    ratio);
      }
    }
    std::printf("\n");
  }

  return json.WriteFile() ? 0 : 1;
}

}  // namespace bench
}  // namespace comfedsv

int main(int argc, char** argv) {
  return comfedsv::bench::Main(argc, argv);
}
