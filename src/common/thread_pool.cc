#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/check.h"

namespace comfedsv {

// One ParallelFor call, on its caller's stack. Participants pull indices
// from `next` (dynamic, so uneven task costs balance). The participant
// that flips `failed` stores `first_error`; the caller reads it only
// after the latch, which orders every helper's writes before the read
// through mu_.
struct ThreadPool::Job {
  const std::function<void(int)>* fn;
  int n;
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error = nullptr;

  // Runs indices until none remain or one has thrown.
  void RunShare() {
    while (!failed.load(std::memory_order_relaxed)) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        if (!failed.exchange(true)) first_error = std::current_exception();
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads <= 1 ? 0 : num_threads) {
  COMFEDSV_CHECK_GE(num_threads, 0);
  if (num_threads_ == 0) return;  // inline mode
  workers_.reserve(num_threads_ - 1);
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  Job job{&fn, n};
  bool published = false;
  if (num_threads_ > 0 && n > 1) {
    MutexLock lock(mu_);
    if (!busy_) {
      busy_ = true;
      open_job_ = &job;
      ++generation_;
      published = true;
    }
  }
  if (!published) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  work_available_.notify_all();
  job.RunShare();
  {
    MutexLock lock(mu_);
    open_job_ = nullptr;
    while (helpers_ != 0) helpers_done_.wait(mu_);
    busy_ = false;
  }
  if (job.first_error != nullptr) std::rethrow_exception(job.first_error);
}

void ThreadPool::ParallelForBlocked(int n, int block_size,
                                    const std::function<void(int, int)>& fn) {
  COMFEDSV_CHECK_GT(block_size, 0);
  if (n <= 0) return;
  // Captures 16 bytes, which std::function stores without allocating.
  ParallelFor((n - 1) / block_size + 1, [&fn, n, block_size](int b) {
    const int begin = b * block_size;
    fn(begin, begin + std::min(block_size, n - begin));
  });
}

void ThreadPool::WorkerLoop() {
  uint64_t joined = 0;  // generation of the last job this worker joined
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ &&
             (open_job_ == nullptr || generation_ == joined)) {
        work_available_.wait(mu_);
      }
      if (shutting_down_) return;
      joined = generation_;
      job = open_job_;
      ++helpers_;
    }
    job->RunShare();
    {
      MutexLock lock(mu_);
      if (--helpers_ == 0) helpers_done_.notify_one();
    }
  }
}

}  // namespace comfedsv
