// ExecutionContext: the shared execution handle threaded through every
// hot path of the library — FedAvg local updates, Monte-Carlo Shapley
// permutation sampling, utility recording, and ALS row solves.
//
// It owns a ThreadPool sized once by the caller (replacing the retired
// FedAvgConfig::num_threads knob). Randomness never comes from the
// context: every stochastic component carries its own config seed, so
// outputs never depend on whether a context was supplied.
//
// Determinism contract: every parallel loop in the library either writes
// disjoint slots or reduces partial results in a fixed order, so running
// the same workload under ExecutionContext(1) and ExecutionContext(k)
// produces bit-identical outputs (tests/determinism_test.cc enforces
// this for the full valuation pipeline).
#ifndef COMFEDSV_COMMON_EXECUTION_CONTEXT_H_
#define COMFEDSV_COMMON_EXECUTION_CONTEXT_H_

#include <functional>

#include "common/thread_pool.h"

namespace comfedsv {

/// Shared handle around a thread pool. Passed by raw pointer; a null
/// context everywhere means "inline, single-threaded" and is always
/// safe.
class ExecutionContext {
 public:
  /// `num_threads <= 1` yields an inline (caller-thread) context.
  explicit ExecutionContext(int num_threads = 1)
      : pool_(num_threads <= 1 ? 0 : num_threads) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  ThreadPool& pool() { return pool_; }

  /// Degree of parallelism: number of workers, or 1 for inline contexts.
  int parallelism() const {
    return pool_.num_threads() > 0 ? pool_.num_threads() : 1;
  }

  /// ParallelFor on this context's pool (inline when single-threaded).
  /// Rethrows the first exception any task raised.
  void ParallelFor(int n, const std::function<void(int)>& fn) {
    pool_.ParallelFor(n, fn);
  }

 private:
  ThreadPool pool_;
};

/// Runs `fn(i)` for i in [0, n) on `ctx`'s pool, or as a plain inline
/// loop when `ctx` is null. The uniform spelling for optional-context
/// call sites.
void ParallelFor(ExecutionContext* ctx, int n,
                 const std::function<void(int)>& fn);

}  // namespace comfedsv

#endif  // COMFEDSV_COMMON_EXECUTION_CONTEXT_H_
