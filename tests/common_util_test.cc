// Tests for ThreadPool, Stopwatch, Table, and logging.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "../bench/stopwatch.h"
#include "common/logging.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace comfedsv {
namespace {

TEST(ThreadPoolTest, InlinePoolRunsTasksImmediately) {
  ThreadPool pool(0);
  int counter = 0;
  pool.Submit([&] { ++counter; });
  EXPECT_EQ(counter, 1);
  pool.Wait();  // no-op
  EXPECT_EQ(pool.num_threads(), 0);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
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

TEST(ThreadPoolTest, WaitCanBeCalledRepeatedly) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  pool.Wait();
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
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
