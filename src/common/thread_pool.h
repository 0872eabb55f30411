// Fixed-size pool used to parallelise per-client local updates,
// coalition utility evaluation, and completion-solver sweeps.
//
// ThreadPool(k) has k participants: the thread that calls ParallelFor
// plus k - 1 workers. A call publishes one job on the caller's stack,
// wakes the workers with one notify_all, runs indices itself from the
// same counter as the workers, and then waits only for the workers that
// joined this job (a per-call latch). A pool of size 0 or 1 spawns no
// worker and runs every loop inline, which keeps unit tests
// deterministic.
//
// One job runs at a time. A ParallelFor issued while another is running
// on the same pool — a nested call from inside a body, or a second user
// thread sharing the pool — runs inline on its own caller. Every library
// call site writes disjoint slots or reduces in a fixed order, so where
// an index runs never changes a result.
#ifndef COMFEDSV_COMMON_THREAD_POOL_H_
#define COMFEDSV_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace comfedsv {

/// A fixed-size fork-join pool whose caller takes part in every loop.
class ThreadPool {
 public:
  /// Creates a pool of `num_threads` participants: `num_threads - 1`
  /// workers plus the calling thread. 0 or 1 means inline execution (no
  /// worker threads are spawned).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of participants, the caller included (0 for inline pools).
  int num_threads() const { return num_threads_; }

  /// Runs `fn(i)` for i in [0, n), distributing across the caller and
  /// the workers, and waits. With an inline pool, n == 1, or while the
  /// pool runs another call, this is a plain loop on the calling thread.
  /// If any invocation throws, remaining indices are abandoned as soon as
  /// possible and the first captured exception is rethrown on the calling
  /// thread after every participant has left the loop.
  void ParallelFor(int n, const std::function<void(int)>& fn) EXCLUDES(mu_);

  /// Runs `fn(begin, end)` over a fixed partition of [0, n) into
  /// contiguous blocks of `block_size` indices (the last block may be
  /// shorter) and waits. The partition depends only on n and block_size —
  /// never on the thread count — so per-block scratch reuse and
  /// per-block accumulation stay deterministic. Exceptions propagate as
  /// in ParallelFor.
  void ParallelForBlocked(int n, int block_size,
                          const std::function<void(int, int)>& fn);

 private:
  struct Job;

  void WorkerLoop() EXCLUDES(mu_);

  const int num_threads_;
  std::vector<std::thread> workers_;  // immutable after construction
  Mutex mu_;
  CondVar work_available_;
  CondVar helpers_done_;
  // The job workers may still join; cleared once its caller has run out
  // of indices, so that late wake-ups do not join a finished job.
  Job* open_job_ GUARDED_BY(mu_) = nullptr;
  // Bumped per published job, so a worker joins each job at most once.
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  // The running job's latch: workers inside it. Its caller returns once
  // this reaches 0.
  int helpers_ GUARDED_BY(mu_) = 0;
  // A call is running; other calls run inline until it returns.
  bool busy_ GUARDED_BY(mu_) = false;
  bool shutting_down_ GUARDED_BY(mu_) = false;
};

}  // namespace comfedsv

#endif  // COMFEDSV_COMMON_THREAD_POOL_H_
