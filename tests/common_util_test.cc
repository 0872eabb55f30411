// Tests for ThreadPool, Stopwatch, Table, and logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../bench/stopwatch.h"
#include "common/logging.h"
#include "common/table.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace comfedsv {
namespace {

TEST(ThreadPoolTest, InlinePoolRunsLoopsOnTheCallerInOrder) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  pool.ParallelFor(5, [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.num_threads(), 0);
}

TEST(ThreadPoolTest, CountsTheCallerAsAParticipant) {
  // ThreadPool(k) runs on k threads: the caller plus k - 1 workers. A
  // worker body holds until the caller has run an index, so with more
  // indices than workers the caller must take one itself. The hold is
  // bounded, so a pool whose caller only waits fails instead of hanging.
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  const std::thread::id caller = std::this_thread::get_id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> caller_ran{false};
  Mutex mu;
  std::set<std::thread::id> seen;
  pool.ParallelFor(8, [&](int) {
    const std::thread::id self = std::this_thread::get_id();
    {
      MutexLock lock(mu);
      seen.insert(self);
    }
    if (self == caller) {
      caller_ran.store(true);
      return;
    }
    while (!caller_ran.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_TRUE(caller_ran.load());
  MutexLock lock(mu);
  EXPECT_EQ(seen.count(caller), 1u);
  EXPECT_LE(seen.size(), 4u);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 257; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForInlineMatchesThreaded) {
  ThreadPool inline_pool(1);
  ThreadPool threaded(4);
  std::vector<double> a(100, 0.0), b(100, 0.0);
  inline_pool.ParallelFor(100, [&](int i) { a[i] = i * i; });
  threaded.ParallelFor(100, [&](int i) { b[i] = i * i; });
  EXPECT_EQ(a, b);
}

TEST(ThreadPoolTest, ParallelForZeroAndNegativeAreNoOps) {
  ThreadPool pool(2);
  int counter = 0;
  pool.ParallelFor(0, [&](int) { ++counter; });
  pool.ParallelFor(-3, [&](int) { ++counter; });
  EXPECT_EQ(counter, 0);
}

TEST(ThreadPoolTest, BackToBackCallsEachCoverTheirIndices) {
  // Each call waits on its own latch; no state leaks into the next one.
  ThreadPool pool(2);
  for (int round = 0; round < 200; ++round) {
    const int n = 1 + round % 9;
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << round;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineAndCoversEveryIndex) {
  // A ParallelFor from inside a body runs inline on that body's thread
  // instead of waiting for the pool it is running on.
  ThreadPool pool(4);
  const int outer = 16;
  const int inner = 33;
  std::vector<std::atomic<int>> hits(outer * inner);
  pool.ParallelFor(outer, [&](int i) {
    pool.ParallelFor(inner, [&](int j) { hits[i * inner + j].fetch_add(1); });
  });
  for (int k = 0; k < outer * inner; ++k) EXPECT_EQ(hits[k].load(), 1) << k;

  std::vector<std::atomic<int>> blocked_hits(outer * inner);
  pool.ParallelForBlocked(outer, 3, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      pool.ParallelForBlocked(inner, 4, [&](int jb, int je) {
        for (int j = jb; j < je; ++j) blocked_hits[i * inner + j].fetch_add(1);
      });
    }
  });
  for (int k = 0; k < outer * inner; ++k) {
    EXPECT_EQ(blocked_hits[k].load(), 1) << k;
  }
}

TEST(ThreadPoolTest, ParallelForBlockedUsesTheFixedPartition) {
  ThreadPool pool(3);
  const int n = 103;
  const int block = 10;
  Mutex mu;
  std::vector<std::pair<int, int>> ranges;
  pool.ParallelForBlocked(n, block, [&](int begin, int end) {
    MutexLock lock(mu);
    ranges.emplace_back(begin, end);
  });
  MutexLock lock(mu);
  std::sort(ranges.begin(), ranges.end());
  ASSERT_EQ(ranges.size(), 11u);
  for (int b = 0; b < 11; ++b) {
    EXPECT_EQ(ranges[b].first, b * block);
    EXPECT_EQ(ranges[b].second, std::min(n, (b + 1) * block));
  }
}

TEST(StopwatchTest, MeasuresNonNegativeIncreasingTime) {
  Stopwatch sw;
  const double t1 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t2, t1);
  sw.Reset();
  EXPECT_LE(sw.ElapsedSeconds(), t2 + 1.0);
}

TEST(TableTest, TextRenderingAlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string text = t.ToText();
  EXPECT_NE(text.find("| name  | value |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvEscapesSpecialCells) {
  Table t({"a", "b"});
  t.AddRow({"x,y", "say \"hi\""});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, NumFormatsWithPrecision) {
  EXPECT_EQ(Table::Num(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(Table::Num(1234567.0, 3), "1.23e+06");
}

TEST(LoggingTest, LevelFilteringIsRestorable) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  COMFEDSV_LOG(kInfo) << "suppressed message";
  SetLogLevel(original);
  EXPECT_EQ(GetLogLevel(), original);
}

}  // namespace
}  // namespace comfedsv
