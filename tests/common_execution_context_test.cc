// Tests for ExecutionContext: parallel execution correctness under
// uneven loads (the shared-counter work distribution), exception
// propagation out of parallel regions (the caller's share included), and
// two user threads sharing one context.
#include "common/execution_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace comfedsv {
namespace {

TEST(ExecutionContextTest, InlineContextHasParallelismOne) {
  ExecutionContext ctx(0);
  EXPECT_EQ(ctx.parallelism(), 1);
  ExecutionContext ctx1(1);
  EXPECT_EQ(ctx1.parallelism(), 1);
  ExecutionContext ctx4(4);
  EXPECT_EQ(ctx4.parallelism(), 4);
}

TEST(ExecutionContextTest, ParallelForCoversUnevenLoadsExactlyOnce) {
  ExecutionContext ctx(3);
  const int n = 301;
  std::vector<std::atomic<int>> hits(n);
  ctx.ParallelFor(n, [&](int i) {
    // Deliberately uneven work so the shared-counter distribution has to
    // rebalance across workers.
    volatile double sink = 0.0;
    for (int k = 0; k < (i % 7) * 1000; ++k) sink = sink + k;
    hits[i].fetch_add(1);
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ExecutionContextTest, ParallelForPropagatesExceptions) {
  ExecutionContext ctx(4);
  EXPECT_THROW(
      ctx.ParallelFor(64,
                      [&](int i) {
                        if (i == 13) throw std::runtime_error("boom");
                      }),
      std::runtime_error);

  // The pool is intact after a failed region: the next region works and
  // covers everything.
  std::atomic<int> count{0};
  ctx.ParallelFor(32, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ExecutionContextTest, InlineParallelForPropagatesExceptions) {
  ExecutionContext ctx(1);
  EXPECT_THROW(ctx.ParallelFor(4,
                               [&](int i) {
                                 if (i == 2) throw std::logic_error("x");
                               }),
               std::logic_error);
}

TEST(ExecutionContextTest, ExceptionAbandonsRemainingWorkQuickly) {
  // After a task throws, the region should not run all remaining indices.
  ExecutionContext ctx(2);
  std::atomic<int> executed{0};
  const int n = 100000;
  try {
    ctx.ParallelFor(n, [&](int i) {
      executed.fetch_add(1);
      if (i == 0) throw std::runtime_error("stop");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(executed.load(), n);
}

TEST(ExecutionContextTest, CallersOwnShareExceptionIsRethrown) {
  // The caller runs indices too. Worker bodies hold until the caller has
  // taken an index, so the throw below comes from the caller's share.
  ExecutionContext ctx(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  EXPECT_THROW(ctx.ParallelFor(64,
                               [&](int) {
                                 if (std::this_thread::get_id() == caller) {
                                   caller_ran.store(true);
                                   throw std::runtime_error("caller");
                                 }
                                 while (!caller_ran.load()) {
                                   std::this_thread::yield();
                                 }
                               }),
               std::runtime_error);

  std::vector<std::atomic<int>> hits(40);
  ctx.ParallelFor(40, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 40; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ExecutionContextTest, ConcurrentCallersEachCoverTheirIndicesOnce) {
  // Two user threads share one context. Whichever call finds the pool
  // busy runs inline; both must still cover their own range exactly once.
  ExecutionContext ctx(4);
  const int n = 97;
  const int rounds = 50;
  std::vector<std::atomic<int>> hits_a(n * rounds), hits_b(n * rounds);
  auto drive = [&](std::vector<std::atomic<int>>* hits) {
    for (int r = 0; r < rounds; ++r) {
      ctx.ParallelFor(n, [&](int i) { (*hits)[r * n + i].fetch_add(1); });
    }
  };
  std::thread a(drive, &hits_a);
  std::thread b(drive, &hits_b);
  a.join();
  b.join();
  for (int k = 0; k < n * rounds; ++k) {
    EXPECT_EQ(hits_a[k].load(), 1) << k;
    EXPECT_EQ(hits_b[k].load(), 1) << k;
  }
}

TEST(FreeParallelForTest, NullContextRunsInlineInOrder) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FreeParallelForTest, ForwardsToContextPool) {
  ExecutionContext ctx(4);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(&ctx, 64, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(hits[i].load(), 1);
}

}  // namespace
}  // namespace comfedsv
