// Per-round utility evaluation (Sec. V of the paper):
//
//   U_t(S) = u_t(w_S^{t+1}),  u_t(w) = l(w^t; D_c) - l(w; D_c),
//   w_S^{t+1} = (1/|S|) sum_{k in S} w_k^{t+1},   U_t(empty) = 0.
//
// Evaluating u_t — one test-set loss — is the dominant cost of every
// valuation method, so the evaluator counts calls; the paper's complexity
// discussion (Sec. VII-D) and Fig. 8 are in units of these calls.
//
// One memo per round, shared: a coalition's utility is a pure function of
// (record, coalition), so every evaluator of a round can read the same
// RoundUtility. The streaming engine builds one per round and hands it to
// each evaluator; an evaluator driven on its own builds a private one.
// Each evaluator is an *asker* with its own UtilityStats, and the memo
// remembers which askers have read each coalition:
//
//   * an asker's first read of a coalition is its loss call, whether it
//     or another asker measured the value;
//   * its repeat reads are its memo hits;
//   * its batched calls are the BatchLoss chunks its own first reads
//     would have filled.
//
// So an evaluator's stats are what it alone would have paid, identical
// whether its memo is shared or private (and so are the checkpoints that
// hold them). What the memo actually ran — one test loss per entry — is
// measured_loss_calls().
//
// Batched engine: callers that know their coalition set up front (the
// recorders, ExactShapley / MonteCarloShapley via the prefetch hook)
// submit it to EvaluateBatch, which dedups, visits the coalitions in
// member-list order, forms their means in parallel over column slices,
// and evaluates whole chunks with one Model::BatchLoss pass over the test
// set instead of one Model::Loss per coalition — the wall-clock
// bottleneck behind the paper's Fig. 8 comparison.
//
// Bit identity: every coordinate of a mean is the sum of the members'
// coordinates in ascending member order, starting from 0.0, times
// 1/|S| — exactly what Utility() computes. No coordinate depends on
// another, on the coalitions formed before it, or on which thread formed
// it, so visiting order, column slicing, thread count and which asker
// measured a coalition cannot change a bit.
#ifndef COMFEDSV_SHAPLEY_UTILITY_H_
#define COMFEDSV_SHAPLEY_UTILITY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/execution_context.h"
#include "common/thread_annotations.h"
#include "data/dataset.h"
#include "fl/round_record.h"
#include "models/model.h"
#include "shapley/coalition.h"

namespace comfedsv {

/// Evaluation-cost accounting of one estimator: what it alone would have
/// paid, accumulated across rounds, whether or not it shared its rounds'
/// memos with other evaluators. Filled by RoundUtility. Each
/// evaluator checkpoints its stats, so a resumed run reports the same
/// counts as an uninterrupted one; surfaced as
/// ValuationOutcome::fedsv_stats, ComFedSvOutput::stats and
/// ValuationOutcome::ground_truth_stats.
struct UtilityStats {
  /// Test-loss evaluations: one per distinct non-empty coalition the
  /// estimator read in a round (the unit of the paper's Fig. 8 cost axis).
  int64_t loss_calls = 0;
  /// Model::BatchLoss passes the batched engine needs for those
  /// coalitions (each covers a chunk of them with one sweep over the test
  /// set).
  int64_t batched_calls = 0;
  /// Repeat reads: queries for a coalition the estimator already read in
  /// the round (repeated Monte-Carlo draws, batch re-submissions).
  int64_t memo_hits = 0;

  /// True when every count is non-negative — what any accumulation can
  /// reach.
  bool Valid() const;
};

/// Forms coalition parameter means incrementally. Keeps the ascending
/// chain of partial sums of the previous coalition's members; a new
/// coalition reuses the longest shared ascending prefix and extends it
/// with one Axpy per remaining member, instead of re-summing all |S|
/// local models. Every partial sum adds members in ascending order from
/// 0.0 — the order RoundUtility::Utility sums them in — so the means are
/// bit-identical to the sequential path whatever the chain's history.
///
/// The chain buffer is stored slice-major: each fixed-width column slice
/// holds its own |S| x width block, so one slice's chain stays cache
/// resident while it walks many coalitions, and slices are independent.
/// Coalitions adjacent in Coalition::MemberListLess order share long
/// prefixes, which makes the amortized cost a few Axpys per coalition.
class CoalitionAggregator {
 public:
  /// `record` must outlive the aggregator.
  explicit CoalitionAggregator(const RoundRecord* record);

  /// Sizes the chain buffer for coalitions of up to `max_members`
  /// clients. Queries with more members grow it, restarting the chain.
  void Reserve(size_t max_members);

  /// Writes the member mean (ascending-order sum scaled by 1/|S|) into
  /// `out`, a buffer of record->global_before.size() doubles. The
  /// coalition must be non-empty.
  void MeanInto(const Coalition& coalition, double* out);

  /// Writes the means of coalitions[0, n) into `out`, n rows of
  /// record->global_before.size() doubles each, extending the chain
  /// through them in the given order. Column slices run in parallel on
  /// `ctx` once the rows' Axpy work clears a fixed cutoff (a property of
  /// the rows, never of the thread count); less work runs inline. Each
  /// slice writes only its own columns, so the bits are the same either
  /// way.
  void MeansInto(const Coalition* coalitions, size_t n, double* out,
                 ExecutionContext* ctx);

 private:
  const RoundRecord* record_;
  size_t dim_;
  size_t capacity_ = 0;          // chain rows partials_ holds
  std::vector<double> partials_;  // capacity_ x dim_, slice-major
  std::vector<int> chain_;        // ascending members of the last query
  size_t depth_ = 0;              // live chain rows in partials_
  // MeansInto's plan: row r sums members_[begin_[r], begin_[r + 1]) and
  // recomputes chain rows from keep_[r] on.
  std::vector<int> members_;
  std::vector<size_t> begin_;
  std::vector<size_t> keep_;
};

/// Evaluates coalition utilities for one round, memoizing by coalition so
/// repeated queries (e.g. shared Monte-Carlo prefixes, or a coalition two
/// evaluators both need) cost one test-loss evaluation each. Holds
/// references; the record, model, test set and context must outlive it.
///
/// Thread-safe: concurrent Utility() calls from a ThreadPool are allowed.
/// The expensive test-loss evaluation runs outside the cache lock, so two
/// threads may race to compute the same coalition; the first insert wins,
/// the asker's counters advance once per distinct coalition (matching
/// single-threaded accounting exactly), and the cached value is
/// deterministic either way.
class RoundUtility {
 public:
  /// `ctx` (optional) parallelizes EvaluateBatch; a null context
  /// evaluates batches inline. `stats` (optional) is asker 0's: it
  /// accumulates that asker's accounting across rounds.
  RoundUtility(const Model* model, const Dataset* test_data,
               const RoundRecord* record, ExecutionContext* ctx = nullptr,
               UtilityStats* stats = nullptr);

  /// Adds an asker — an evaluator sharing this memo — whose reads are
  /// charged to `stats` (optional), and returns its id for Utility and
  /// EvaluateBatch. A memo tracks at most 32 askers.
  int AddAsker(UtilityStats* stats);

  /// U_t(S), read by `asker`. The empty coalition has utility 0 by
  /// convention (u_t(w^t) = 0) and is never counted.
  double Utility(const Coalition& coalition, int asker = 0);

  /// Evaluates (and caches) every coalition in `coalitions` for `asker`
  /// through the batched engine: dedups against the cache and within the
  /// batch, sorts what is left by Coalition::MemberListLess, forms each
  /// chunk's means with one CoalitionAggregator (parallel over column
  /// slices on `ctx`), and computes each chunk with one Model::BatchLoss
  /// pass over the test set. Subsequent Utility() calls are cache hits.
  /// Counters advance once per distinct coalition, exactly as if each had
  /// been evaluated singly; cached values are bit-identical to the
  /// unbatched path for any thread count. Call from one thread
  /// (typically before fanning out readers).
  void EvaluateBatch(const std::vector<Coalition>& coalitions,
                     int asker = 0);

  /// Test-loss evaluations this memo actually ran: one per cached
  /// coalition, whichever asker read it first.
  int64_t measured_loss_calls() const;

  const RoundRecord* record() const { return record_; }

 private:
  struct Entry {
    double value = 0.0;
    uint32_t askers = 0;  // bit a set = asker a has read the coalition
  };
  static constexpr int kMaxAskers = 32;  // the bits of Entry::askers

  /// `asker`'s stats sink (null = not counted); checks the id.
  UtilityStats* StatsOf(int asker) REQUIRES(mu_);
  /// Charges `asker` one read of `entry`: a loss call the first time, a
  /// memo hit after that. Returns true for the first time.
  bool Charge(Entry* entry, int asker) REQUIRES(mu_);
  /// Caches a measured `value` (unless a racing thread cached it first),
  /// charges `asker` its read and returns the cached value.
  double Insert(const Coalition& coalition, double value, int asker)
      REQUIRES(mu_);

  const Model* model_;
  const Dataset* test_data_;
  const RoundRecord* record_;
  mutable Mutex mu_;  // guards the memo table, the askers and every counter
  ExecutionContext* ctx_;  // not owned; null = inline batch evaluation
  // Caller-owned stats sinks, one per asker (null = not counted); the
  // pointees are only ever mutated with mu_ held.
  std::vector<UtilityStats*> askers_ GUARDED_BY(mu_);
  std::unordered_map<Coalition, Entry, CoalitionHash> cache_
      GUARDED_BY(mu_);
  int64_t measured_loss_calls_ GUARDED_BY(mu_) = 0;
};

}  // namespace comfedsv

#endif  // COMFEDSV_SHAPLEY_UTILITY_H_
