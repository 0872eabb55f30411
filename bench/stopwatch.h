// Wall-clock stopwatch for the bench binaries' timing columns (Fig. 8,
// solver ablations). The library itself reads no clock: its cost unit
// is the loss-call count in UtilityStats.
#ifndef COMFEDSV_BENCH_STOPWATCH_H_
#define COMFEDSV_BENCH_STOPWATCH_H_

#include <chrono>

namespace comfedsv {

/// Measures elapsed wall-clock time. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last Reset().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace comfedsv

#endif  // COMFEDSV_BENCH_STOPWATCH_H_
