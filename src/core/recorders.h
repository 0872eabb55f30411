// Round observers that materialize (parts of) the utility matrix
// U ∈ R^{T x 2^N} during training:
//
//   * FullUtilityRecorder     — every entry of every round (the paper's
//                               "ground truth" methodology; Figs. 2, 3, 6);
//   * ObservedUtilityRecorder — only the entries the server can actually
//                               observe, {(t, S) : S ⊆ I_t} (the input to
//                               the Def. 4 completion problem);
//   * SampledUtilityRecorder  — Algorithm 1: the observable entries whose
//                               columns are prefixes of M sampled
//                               permutations (problem (13)).
#ifndef COMFEDSV_CORE_RECORDERS_H_
#define COMFEDSV_CORE_RECORDERS_H_

#include <cstdint>
#include <vector>

#include "common/execution_context.h"
#include "common/status.h"
#include "completion/interner.h"
#include "completion/observations.h"
#include "data/dataset.h"
#include "fl/round_record.h"
#include "linalg/matrix.h"
#include "models/model.h"
#include "shapley/coalition.h"
#include "shapley/sampler.h"
#include "shapley/utility.h"

namespace comfedsv {

/// Checkpointable mid-run state of FullUtilityRecorder.
struct FullRecorderState {
  std::vector<std::vector<double>> rows;
  UtilityStats stats;
};

/// Checkpointable mid-run state of ObservedUtilityRecorder. The interner
/// is part of the state because column ids are assigned in discovery
/// order, which depends on the selected sets seen so far.
struct ObservedRecorderState {
  CoalitionInterner interner;
  std::vector<Observation> triplets;
  int rounds_recorded = 0;
  UtilityStats stats;
};

/// Checkpointable mid-run state of SampledUtilityRecorder. The
/// permutations, prefix columns, and interner are *not* part of the
/// state: they are re-derived bit-identically from the constructor's
/// (seed, budget, sampler) arguments, which the composite checkpoint
/// fingerprints.
struct SampledRecorderState {
  std::vector<Observation> triplets;
  int rounds_recorded = 0;
  UtilityStats stats;
};

/// Largest federation FullUtilityRecorder accepts (2^N utilities per
/// round).
inline constexpr int kMaxFullClients = 16;
/// Largest per-round selection ObservedUtilityRecorder accepts (2^m
/// utilities per round).
inline constexpr int kMaxObservedClients = 20;

/// Records the complete utility matrix: every coalition of the full client
/// set, every round with a non-empty selected set (a round in which no
/// client participates contributes zero to every valuation metric and is
/// skipped, matching the FedSV / observed-recorder convention).
/// Exponential in N — guarded to N <= 16; intended for the N = 10
/// analyses of the paper.
///
/// Column c corresponds to the coalition whose membership bitmask is c
/// (bit i set <=> client i in S); column 0 is the empty coalition.
class FullUtilityRecorder : public RoundObserver {
 public:
  /// Each round's 2^N - 1 coalitions are submitted to the batched
  /// utility engine in one shot (mask order), which evaluates them with
  /// a few Model::BatchLoss passes over the test set. `ctx` (optional)
  /// parallelizes those passes over fixed sub-blocks, so the recording
  /// is identical for any thread count.
  FullUtilityRecorder(const Model* model, const Dataset* test_data,
                      int num_clients, ExecutionContext* ctx = nullptr);

  /// Records the round through a private memo.
  void OnRound(const RoundRecord& record) override;
  /// The same recording and stats(), through `utility`: a memo of
  /// `record` that other evaluators may share.
  void OnRound(const RoundRecord& record, RoundUtility* utility);

  /// The T x 2^N matrix recorded so far (row t = round t). Requires at
  /// least one recorded round.
  Matrix ToMatrix() const;

  /// Rounds recorded so far (empty-selected rounds are skipped).
  int rounds_recorded() const { return static_cast<int>(rows_.size()); }

  int num_clients() const { return num_clients_; }

  /// Measured evaluation accounting (loss calls, batch passes, memo
  /// hits) accumulated across rounds; checkpointed with the recording.
  const UtilityStats& stats() const { return stats_; }

  /// Snapshot / resume of the recording after any number of rounds.
  FullRecorderState SaveState() const;
  Status RestoreState(FullRecorderState state);

 private:
  const Model* model_;
  const Dataset* test_data_;
  int num_clients_;
  ExecutionContext* ctx_;
  std::vector<std::vector<double>> rows_;
  UtilityStats stats_;
};

/// Records only server-observable utilities: all subsets of the selected
/// set I_t each round (plus the empty coalition at value 0, which anchors
/// h_empty). Columns are interned lazily; under Assumption 1 the first
/// round interns all 2^N coalitions. Rounds with an empty selected set
/// observe nothing and are skipped.
class ObservedUtilityRecorder : public RoundObserver {
 public:
  /// Each round's 2^|I_t| - 1 observable coalitions go through the
  /// batched utility engine (`ctx` parallelizes its fixed sub-blocks);
  /// interning stays sequential in mask order, so column ids and triplet
  /// order are identical for any thread count.
  ObservedUtilityRecorder(const Model* model, const Dataset* test_data,
                          int num_clients, ExecutionContext* ctx = nullptr);

  /// Records the round through a private memo.
  void OnRound(const RoundRecord& record) override;
  /// The same recording and stats(), through `utility`: a memo of
  /// `record` that other evaluators may share.
  void OnRound(const RoundRecord& record, RoundUtility* utility);

  /// Assembles the sparse completion input, finalized (CSR/CSC views
  /// built) and ready for CompleteMatrix. Call after training.
  ObservationSet BuildObservations() const;

  const CoalitionInterner& interner() const { return interner_; }
  int rounds_recorded() const { return rounds_recorded_; }

  /// Measured evaluation accounting; checkpointed with the recording.
  const UtilityStats& stats() const { return stats_; }

  /// Snapshot / resume of the recording after any number of rounds.
  ObservedRecorderState SaveState() const;
  Status RestoreState(ObservedRecorderState state);

 private:
  const Model* model_;
  const Dataset* test_data_;
  int num_clients_;
  ExecutionContext* ctx_;
  CoalitionInterner interner_;
  std::vector<Observation> triplets_;
  int rounds_recorded_ = 0;
  UtilityStats stats_;
};

/// Algorithm 1's recorder: M permutations of the client set are sampled
/// up front by the configured PermutationSampler; the needed matrix
/// columns are exactly the permutation prefixes (deduped by the
/// interner). Each round records the utilities of the prefixes contained
/// in I_t.
class SampledUtilityRecorder : public RoundObserver {
 public:
  /// Each round's distinct observable prefixes are discovered
  /// sequentially (deduped in permutation order) and then evaluated
  /// through the batched utility engine (`ctx` parallelizes its fixed
  /// sub-blocks), so the recorded triplets are identical for any thread
  /// count.
  ///
  /// `sampler` selects the permutation-sampling strategy
  /// (shapley/sampler.h). Uniform IID reproduces the pre-sampler
  /// recorder bit for bit; antithetic/stratified draw variance-reduced
  /// orderings; kTruncated additionally stops *measuring* a
  /// permutation's per-round prefixes once the observed utility is
  /// within the tolerance of U_t(I_t) — the tail's observable prefixes
  /// are recorded at that reference value (within the tolerance by the
  /// truncation premise) without spending their loss calls, so every
  /// column observable under Assumption 1 stays anchored for the
  /// completion. Truncated rounds spend one extra loss call on the
  /// U_t(I_t) reference.
  SampledUtilityRecorder(const Model* model, const Dataset* test_data,
                         int num_clients, int num_permutations,
                         uint64_t seed, SamplerConfig sampler = {},
                         ExecutionContext* ctx = nullptr);

  /// Records the round through a private memo.
  void OnRound(const RoundRecord& record) override;
  /// The same recording and stats(), through `utility`: a memo of
  /// `record` that other evaluators may share.
  void OnRound(const RoundRecord& record, RoundUtility* utility);

  ObservationSet BuildObservations() const;

  const CoalitionInterner& interner() const { return interner_; }
  const std::vector<std::vector<int>>& permutations() const {
    return permutations_;
  }
  /// prefix_columns()[m][l]: column id of the length-l prefix of
  /// permutation m.
  const std::vector<std::vector<int>>& prefix_columns() const {
    return prefix_columns_;
  }
  int rounds_recorded() const { return rounds_recorded_; }

  /// Measured evaluation accounting; checkpointed with the recording.
  const UtilityStats& stats() const { return stats_; }

  /// Snapshot / resume of the recording after any number of rounds. The
  /// restoring recorder must be constructed with the same (num_clients,
  /// num_permutations, seed, sampler) so its re-derived permutations and
  /// column ids match the saved triplets.
  SampledRecorderState SaveState() const;
  Status RestoreState(SampledRecorderState state);

 private:
  /// The default per-round recording path: every distinct observable
  /// permutation prefix, measured through one batch.
  void RecordPrefixRound(int t, const Coalition& selected,
                         RoundUtility* utility, int asker);
  /// The kTruncated per-round recording path (wave-batched walks).
  void RecordTruncatedRound(int t, const Coalition& selected,
                            RoundUtility* utility, int asker);

  const Model* model_;
  const Dataset* test_data_;
  int num_clients_;
  SamplerConfig sampler_;
  ExecutionContext* ctx_;
  std::vector<std::vector<int>> permutations_;
  /// prefix_columns_[m][l] is the column id of the length-l prefix of
  /// permutation m (l in [0, N]).
  std::vector<std::vector<int>> prefix_columns_;
  CoalitionInterner interner_;
  std::vector<Observation> triplets_;
  int rounds_recorded_ = 0;
  UtilityStats stats_;
};

}  // namespace comfedsv

#endif  // COMFEDSV_CORE_RECORDERS_H_
