#include "completion/solver.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/gram_kernels.h"
#include "linalg/vector.h"

namespace comfedsv {
namespace {

// Rows (or columns) per parallel task of a solver sweep. Each task reuses
// one scratch allocation across its block; fixed (never derived from the
// thread count) so block-local state stays schedule-independent.
constexpr int kSolveBlock = 64;

// Runs fn(begin, end) over fixed blocks of [0, n): on the pool when one
// is supplied, as a single inline range otherwise.
void RunBlocked(ThreadPool* pool, int n, int block,
                const std::function<void(int, int)>& fn) {
  if (n <= 0) return;
  if (pool == nullptr) {
    fn(0, n);
    return;
  }
  pool->ParallelForBlocked(n, block, fn);
}

bool VerifyFusedObjective(const CompletionConfig& cfg) {
#ifndef NDEBUG
  (void)cfg;
  return true;
#else
  return cfg.verify_fused_objective;
#endif
}

// Direct objective: one pass over the CSR arrays. The solvers call this
// once up front and once at termination (plus per iteration when the
// fused-objective cross-check is on); iteration-loop objectives come from
// sweep-maintained state instead.
double ObjectiveAndRmse(const ObservationSet& obs, const Matrix& w,
                        const Matrix& h, double lambda, double* rmse) {
  const int rank = static_cast<int>(w.cols());
  const std::vector<int>& offsets = obs.row_offsets();
  const std::vector<int>& cols = obs.csr_cols();
  const std::vector<double>& values = obs.csr_values();
  double sq_err = 0.0;
  for (int i = 0; i < obs.num_rows(); ++i) {
    const double* wr = w.RowPtr(i);
    for (int p = offsets[i]; p < offsets[i + 1]; ++p) {
      const double* hr = h.RowPtr(cols[p]);
      double pred = 0.0;
      for (int k = 0; k < rank; ++k) pred += wr[k] * hr[k];
      const double d = values[p] - pred;
      sq_err += d * d;
    }
  }
  if (rmse != nullptr) {
    *rmse = obs.empty() ? 0.0
                        : std::sqrt(sq_err / static_cast<double>(obs.size()));
  }
  const double wf = w.FrobeniusNorm();
  const double hf = h.FrobeniusNorm();
  return sq_err + lambda * (wf * wf + hf * hf);
}

// Fused objectives accumulate in a different (but fixed) order than the
// direct pass and, for CCD++, against an incrementally maintained
// residual — so the cross-check allows accumulated-rounding slack.
void CrossCheckObjective(const ObservationSet& obs, const Matrix& w,
                         const Matrix& h, double lambda, double fused) {
  const double direct = ObjectiveAndRmse(obs, w, h, lambda, nullptr);
  const double tol =
      1e-6 * std::max({1.0, std::fabs(direct), std::fabs(fused)});
  COMFEDSV_CHECK_MSG(std::fabs(direct - fused) <= tol,
                     "fused objective " << fused << " vs direct " << direct);
}

void RandomInit(Matrix* m, double scale, Rng* rng) {
  for (size_t i = 0; i < m->rows(); ++i) {
    double* row = m->RowPtr(i);
    for (size_t j = 0; j < m->cols(); ++j) {
      row[j] = rng->NextGaussian(0.0, scale);
    }
  }
}

// Per-task scratch of the ALS sweeps: the gather panel, the smoothing
// RHS terms, and (rank > kMaxRidgeRank only) the materialized normal
// equations — reused across every row of the task's block.
struct AlsScratch {
  explicit AlsScratch(int rank)
      : normal(static_cast<size_t>(rank) * rank),
        rhs(rank),
        extra(rank) {}
  GramRhsScratch gram;
  std::vector<double> normal;
  std::vector<double> rhs;
  std::vector<double> extra;
};

// One ALS half-sweep over the CSR (rows side) or CSC (columns side)
// view: re-solve every row of `target` against the fixed factor. For row
// i with observed entries (i, j, v):
//   (sum_j h_j h_j^T + lambda I [+ c_i mu I]) w_i
//       = sum_j v h_j [+ mu sum_{neighbours} w_nb],
// where the mu terms implement the optional temporal-smoothness coupling
// between adjacent round rows (rows side only).
//
// Row solves read only `fixed` (and, under mu, neighbour rows of the
// opposite red-black color) and write disjoint rows of `target`, so the
// sweep fans out over `pool` in fixed blocks and is bit-identical for
// any thread count. The normal equations accumulate through the fused
// gather/Gram kernel; on the columns side the gathered panel is reused
// to bank each column's residual sum of squares into `col_sq_err`
// (the fused objective).
void AlsHalfSweep(const ObservationSet& obs, bool solve_rows_side,
                  const Matrix& fixed, double lambda, double mu,
                  ThreadPool* pool, Matrix* target,
                  std::vector<double>* col_sq_err) {
  const int rank = static_cast<int>(fixed.cols());
  const int n = solve_rows_side ? obs.num_rows() : obs.num_cols();
  const std::vector<int>& offsets =
      solve_rows_side ? obs.row_offsets() : obs.col_offsets();
  const std::vector<int>& index =
      solve_rows_side ? obs.csr_cols() : obs.csc_rows();
  const std::vector<double>& values =
      solve_rows_side ? obs.csr_values() : obs.csc_values();
  const bool smooth = solve_rows_side && mu > 0.0 && n > 1;

  auto solve_one = [&](int i, AlsScratch* s) {
    const int begin = offsets[i];
    const int count = offsets[i + 1] - begin;
    if (count == 0 && !smooth) {
      // Stays at its init; contributes no observed entries.
      if (col_sq_err != nullptr) (*col_sq_err)[i] = 0.0;
      return;
    }
    int num_neighbours = 0;
    if (smooth) num_neighbours = (i == 0 || i == n - 1) ? 1 : 2;
    const double diag_init = lambda + mu * num_neighbours;
    const double* rhs_extra = nullptr;
    if (smooth) {
      double* extra = s->extra.data();
      for (int a = 0; a < rank; ++a) extra[a] = 0.0;
      if (i > 0) {
        const double* prev = target->RowPtr(i - 1);
        for (int a = 0; a < rank; ++a) extra[a] += mu * prev[a];
      }
      if (i < n - 1) {
        const double* next = target->RowPtr(i + 1);
        for (int a = 0; a < rank; ++a) extra[a] += mu * next[a];
      }
      rhs_extra = extra;
    }
    // The panel is only kept when this sweep banks the fused objective.
    double* panel = nullptr;
    if (col_sq_err != nullptr) {
      s->gram.panel.resize(static_cast<size_t>(count) * rank);
      panel = s->gram.panel.data();
    }
    double* out = target->RowPtr(i);
    if (rank <= kMaxRidgeRank) {
      COMFEDSV_CHECK_MSG(
          SolveRidgeRow(fixed, index.data() + begin, values.data() + begin,
                        count, diag_init, rhs_extra, panel, out),
          "ALS normal equations not positive definite");
    } else {
      double* normal = s->normal.data();
      double* rhs = s->rhs.data();
      AccumulateGramRhs(fixed, index.data() + begin, values.data() + begin,
                        count, diag_init, &s->gram, normal, rhs);
      if (rhs_extra != nullptr) {
        for (int a = 0; a < rank; ++a) rhs[a] += rhs_extra[a];
      }
      COMFEDSV_CHECK_MSG(SolveSpdInPlace(rank, normal, rhs),
                         "ALS normal equations not positive definite");
      for (int a = 0; a < rank; ++a) out[a] = rhs[a];
      // AccumulateGramRhs always packs; reuse its panel for the fused
      // objective on this off-hot-path rank.
      panel = s->gram.panel.data();
    }
    if (col_sq_err != nullptr) {
      (*col_sq_err)[i] = PanelResidualSq(panel, values.data() + begin,
                                         count, rank, out);
    }
  };

  // map(t) enumerates the pass's row indices; under temporal smoothing
  // the sweep is split into a red (even) and a black (odd) pass. A row's
  // neighbours i +- 1 are always the opposite color, so each pass reads
  // only rows the other pass wrote — Gauss–Seidel coupling with a
  // schedule-independent result.
  auto run_pass = [&](int count, const std::function<int(int)>& map) {
    RunBlocked(pool, count, kSolveBlock, [&](int t_begin, int t_end) {
      AlsScratch scratch(rank);
      for (int t = t_begin; t < t_end; ++t) solve_one(map(t), &scratch);
    });
  };
  if (smooth) {
    run_pass((n + 1) / 2, [](int t) { return 2 * t; });
    run_pass(n / 2, [](int t) { return 2 * t + 1; });
  } else {
    run_pass(n, [](int t) { return t; });
  }
}

// Copies the leading `k` columns of `src` into `dst` (same row count).
void CopyLeadingColumns(const Matrix& src, int k, Matrix* dst) {
  for (size_t i = 0; i < src.rows(); ++i) {
    for (int c = 0; c < k; ++c) (*dst)(i, c) = src(i, c);
  }
}

Result<CompletionResult> SolveAls(const ObservationSet& obs,
                                  const CompletionConfig& cfg, Matrix w,
                                  Matrix h, bool staged_growth,
                                  ThreadPool* pool) {
  // Staged rank growth: fit one latent dimension at a time, warm-starting
  // each stage from the previous fit. Plain joint ALS from a random init
  // is prone to poor basins when observations are sparse and unevenly
  // distributed (the utility matrix's single Everyone-Being-Heard row);
  // growing the rank mimics the spectral ordering (dominant directions
  // first) while keeping ALS's exact row solves. Warm-started solves
  // (CompleteMatrixWarm) skip the pre-phase: their factors already
  // select a basin.
  const int warm_iters = std::max(5, cfg.max_iters / (2 * cfg.rank));
  for (int k = staged_growth ? 1 : cfg.rank; k < cfg.rank; ++k) {
    Matrix wk(w.rows(), k);
    Matrix hk(h.rows(), k);
    CopyLeadingColumns(w, k, &wk);
    CopyLeadingColumns(h, k, &hk);
    for (int it = 0; it < warm_iters; ++it) {
      AlsHalfSweep(obs, /*solve_rows_side=*/true, hk, cfg.lambda,
                   cfg.temporal_smoothing, pool, &wk, nullptr);
      AlsHalfSweep(obs, /*solve_rows_side=*/false, wk, cfg.lambda, 0.0,
                   pool, &hk, nullptr);
    }
    CopyLeadingColumns(wk, k, &w);
    CopyLeadingColumns(hk, k, &h);
  }

  const bool verify = VerifyFusedObjective(cfg);
  // Fused objective: the H-side sweep banks each column's residual sum
  // of squares (every observed entry belongs to exactly one column), so
  // no solver iteration re-walks the observations. The per-column array
  // is reduced in ascending column order — deterministic for any thread
  // count.
  std::vector<double> col_sq_err(obs.num_cols(), 0.0);
  double prev_obj = ObjectiveAndRmse(obs, w, h, cfg.lambda, nullptr);
  int iters = 0;
  for (; iters < cfg.max_iters; ++iters) {
    AlsHalfSweep(obs, /*solve_rows_side=*/true, h, cfg.lambda,
                 cfg.temporal_smoothing, pool, &w, nullptr);
    AlsHalfSweep(obs, /*solve_rows_side=*/false, w, cfg.lambda, 0.0, pool,
                 &h, &col_sq_err);
    double sq_err = 0.0;
    for (int j = 0; j < obs.num_cols(); ++j) sq_err += col_sq_err[j];
    const double wf = w.FrobeniusNorm();
    const double hf = h.FrobeniusNorm();
    const double obj = sq_err + cfg.lambda * (wf * wf + hf * hf);
    if (verify) CrossCheckObjective(obs, w, h, cfg.lambda, obj);
    if (prev_obj - obj <= cfg.tolerance * std::max(1.0, prev_obj)) {
      ++iters;
      break;
    }
    prev_obj = obj;
  }
  CompletionResult out;
  out.w = std::move(w);
  out.h = std::move(h);
  out.iterations = iters;
  out.objective =
      ObjectiveAndRmse(obs, out.w, out.h, cfg.lambda, &out.observed_rmse);
  return out;
}

// CCD++ (Yu et al. 2014, the LIBPMF algorithm): optimize one latent
// dimension at a time against an explicitly maintained residual, cycling
// coordinate updates on w_{:,k} and h_{:,k}. The residual lives in CSR
// order; row phases sweep it via the CSR arrays and column phases via
// the csc_to_csr position map. Each phase writes disjoint slots (or
// disjoint residual ranges) and phases are separated by pool barriers,
// so the solve is bit-identical for any thread count.
Result<CompletionResult> SolveCcd(const ObservationSet& obs,
                                  const CompletionConfig& cfg, Matrix w,
                                  Matrix h, ThreadPool* pool) {
  const int rank = cfg.rank;
  const int num_rows = obs.num_rows();
  const int num_cols = obs.num_cols();
  const std::vector<int>& row_off = obs.row_offsets();
  const std::vector<int>& csr_cols = obs.csr_cols();
  const std::vector<double>& csr_values = obs.csr_values();
  const std::vector<int>& col_off = obs.col_offsets();
  const std::vector<int>& csc_rows = obs.csc_rows();
  const std::vector<int>& csc_to_csr = obs.csc_to_csr();

  // residual[p] = value_p - w_row . h_col, maintained across updates.
  std::vector<double> residual(obs.size());
  RunBlocked(pool, num_rows, kSolveBlock, [&](int i_begin, int i_end) {
    for (int i = i_begin; i < i_end; ++i) {
      const double* wr = w.RowPtr(i);
      for (int p = row_off[i]; p < row_off[i + 1]; ++p) {
        const double* hr = h.RowPtr(csr_cols[p]);
        double pred = 0.0;
        for (int k = 0; k < rank; ++k) pred += wr[k] * hr[k];
        residual[p] = csr_values[p] - pred;
      }
    }
  });

  const bool verify = VerifyFusedObjective(cfg);
  // Fused objective: the squared error is the squared norm of the
  // maintained residual — summed in CSR order, no extra observation
  // pass.
  auto fused_objective = [&]() {
    double sq_err = 0.0;
    for (double r : residual) sq_err += r * r;
    const double wf = w.FrobeniusNorm();
    const double hf = h.FrobeniusNorm();
    return sq_err + cfg.lambda * (wf * wf + hf * hf);
  };

  double prev_obj = fused_objective();
  int iters = 0;
  for (; iters < cfg.max_iters; ++iters) {
    for (int k = 0; k < rank; ++k) {
      // Fold dimension k back into the residual: r_p += w_ik * h_jk.
      RunBlocked(pool, num_rows, kSolveBlock, [&](int i_begin, int i_end) {
        for (int i = i_begin; i < i_end; ++i) {
          const double wik = w(i, k);
          for (int p = row_off[i]; p < row_off[i + 1]; ++p) {
            residual[p] += wik * h(csr_cols[p], k);
          }
        }
      });
      // A few inner alternations of the rank-1 fit (CCD++ uses a small
      // constant; 2 suffices in practice). The residual is fixed during
      // the alternations, so the row phase reads h(:,k) and writes only
      // w(:,k) rows, and vice versa.
      for (int inner = 0; inner < 2; ++inner) {
        RunBlocked(pool, num_rows, kSolveBlock, [&](int i_begin, int i_end) {
          for (int i = i_begin; i < i_end; ++i) {
            const int begin = row_off[i];
            const int end = row_off[i + 1];
            if (begin == end) continue;
            double num = 0.0, den = cfg.lambda;
            for (int p = begin; p < end; ++p) {
              const double hv = h(csr_cols[p], k);
              num += residual[p] * hv;
              den += hv * hv;
            }
            w(i, k) = num / den;
          }
        });
        RunBlocked(pool, num_cols, kSolveBlock, [&](int j_begin, int j_end) {
          for (int j = j_begin; j < j_end; ++j) {
            const int begin = col_off[j];
            const int end = col_off[j + 1];
            if (begin == end) continue;
            double num = 0.0, den = cfg.lambda;
            for (int q = begin; q < end; ++q) {
              const double wv = w(csc_rows[q], k);
              num += residual[csc_to_csr[q]] * wv;
              den += wv * wv;
            }
            h(j, k) = num / den;
          }
        });
      }
      // Subtract the refit dimension back out of the residual.
      RunBlocked(pool, num_rows, kSolveBlock, [&](int i_begin, int i_end) {
        for (int i = i_begin; i < i_end; ++i) {
          const double wik = w(i, k);
          for (int p = row_off[i]; p < row_off[i + 1]; ++p) {
            residual[p] -= wik * h(csr_cols[p], k);
          }
        }
      });
    }
    const double obj = fused_objective();
    if (verify) CrossCheckObjective(obs, w, h, cfg.lambda, obj);
    if (prev_obj - obj <= cfg.tolerance * std::max(1.0, prev_obj)) {
      ++iters;
      break;
    }
    prev_obj = obj;
  }
  CompletionResult out;
  out.w = std::move(w);
  out.h = std::move(h);
  out.iterations = iters;
  out.objective =
      ObjectiveAndRmse(obs, out.w, out.h, cfg.lambda, &out.observed_rmse);
  return out;
}

}  // namespace

std::string CompletionSolverName(CompletionSolver solver) {
  switch (solver) {
    case CompletionSolver::kAls:
      return "als";
    case CompletionSolver::kCcd:
      return "ccd++";
  }
  return "unknown";
}

Status ValidateCompletionConfig(const CompletionConfig& config) {
  auto bad = [](const char* field, const std::string& rule, double got) {
    std::ostringstream msg;
    msg << field << " must be " << rule << ", got " << got;
    return Status::InvalidArgument(msg.str());
  };
  if (config.rank < 1) return bad("rank", ">= 1", config.rank);
  if (!std::isfinite(config.lambda) || config.lambda <= 0.0) {
    return bad("lambda", "finite and > 0", config.lambda);
  }
  if (config.max_iters < 1) return bad("max_iters", ">= 1", config.max_iters);
  if (!std::isfinite(config.init_scale) || config.init_scale < 0.0) {
    return bad("init_scale", "finite and >= 0", config.init_scale);
  }
  if (!std::isfinite(config.temporal_smoothing) ||
      config.temporal_smoothing < 0.0) {
    return bad("temporal_smoothing", "finite and >= 0",
               config.temporal_smoothing);
  }
  if (config.solver != CompletionSolver::kAls &&
      config.temporal_smoothing != 0.0) {
    return bad("temporal_smoothing",
               "0 for solver " + CompletionSolverName(config.solver),
               config.temporal_smoothing);
  }
  return Status::Ok();
}

double CompletionResult::Predict(int row, int col) const {
  COMFEDSV_CHECK_LT(static_cast<size_t>(row), w.rows());
  COMFEDSV_CHECK_LT(static_cast<size_t>(col), h.rows());
  const double* wr = w.RowPtr(row);
  const double* hr = h.RowPtr(col);
  double acc = 0.0;
  for (size_t k = 0; k < w.cols(); ++k) acc += wr[k] * hr[k];
  return acc;
}

namespace {

// Shared entry point of the cold and warm solves: `warm` (optional)
// seeds the leading factor rows and disables ALS staged rank growth.
Result<CompletionResult> CompleteMatrixImpl(
    const ObservationSet& observations, const CompletionConfig& config,
    const FactorPair* warm, ExecutionContext* ctx) {
  COMFEDSV_RETURN_IF_ERROR(ValidateCompletionConfig(config));
  if (!observations.finalized()) {
    return Status::FailedPrecondition(
        "observations must be finalized (ObservationSet::Finalize()) "
        "before solving");
  }
  if (observations.empty()) {
    return Status::InvalidArgument("no observed entries to complete from");
  }
  if (warm != nullptr) {
    if (warm->w.cols() != static_cast<size_t>(config.rank) ||
        warm->h.cols() != static_cast<size_t>(config.rank)) {
      return Status::InvalidArgument(
          "warm-start factor rank does not match config.rank");
    }
    if (warm->w.rows() > static_cast<size_t>(observations.num_rows()) ||
        warm->h.rows() > static_cast<size_t>(observations.num_cols())) {
      return Status::InvalidArgument(
          "warm-start factors have more rows than the problem");
    }
  }

  Rng rng(config.seed ^ 0x4D435000ULL);
  Matrix w(observations.num_rows(), config.rank);
  Matrix h(observations.num_cols(), config.rank);
  // Initialization scale. Small-relative-to-data inits let the
  // alternating methods grow the dominant factor directions first
  // (a spectral-like dynamic) and avoid poor local basins; a scale far
  // above the data is equally harmful. Auto mode uses 10% of the scale
  // that would reproduce the mean observed magnitude.
  double init_scale = config.init_scale;
  if (init_scale <= 0.0) {
    double mean_abs = 0.0;
    for (double v : observations.csr_values()) mean_abs += std::fabs(v);
    mean_abs /= static_cast<double>(observations.size());
    init_scale =
        (mean_abs > 0.0) ? 0.1 * std::sqrt(mean_abs / config.rank) : 0.1;
  }
  RandomInit(&w, init_scale, &rng);
  RandomInit(&h, init_scale, &rng);
  if (warm != nullptr) {
    // Rows fitted in the previous (prefix) solve carry over; rows the
    // prefix never saw keep the seeded random init drawn above.
    for (size_t i = 0; i < warm->w.rows(); ++i) {
      std::copy(warm->w.RowPtr(i), warm->w.RowPtr(i) + config.rank,
                w.RowPtr(i));
    }
    for (size_t j = 0; j < warm->h.rows(); ++j) {
      std::copy(warm->h.RowPtr(j), warm->h.RowPtr(j) + config.rank,
                h.RowPtr(j));
    }
  }

  ThreadPool* pool = ctx != nullptr ? &ctx->pool() : nullptr;
  switch (config.solver) {
    case CompletionSolver::kAls:
      return SolveAls(observations, config, std::move(w), std::move(h),
                      /*staged_growth=*/warm == nullptr, pool);
    case CompletionSolver::kCcd:
      return SolveCcd(observations, config, std::move(w), std::move(h),
                      pool);
  }
  return Status::InvalidArgument("unknown completion solver");
}

}  // namespace

Result<CompletionResult> CompleteMatrix(const ObservationSet& observations,
                                        const CompletionConfig& config,
                                        ExecutionContext* ctx) {
  return CompleteMatrixImpl(observations, config, nullptr, ctx);
}

Result<CompletionResult> CompleteMatrixWarm(
    const ObservationSet& observations, const CompletionConfig& config,
    const FactorPair& warm, ExecutionContext* ctx) {
  return CompleteMatrixImpl(observations, config, &warm, ctx);
}

}  // namespace comfedsv
