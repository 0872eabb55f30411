#include "core/recorders.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "shapley/utility.h"

namespace comfedsv {

FullUtilityRecorder::FullUtilityRecorder(const Model* model,
                                         const Dataset* test_data,
                                         int num_clients,
                                         ExecutionContext* ctx)
    : model_(model),
      test_data_(test_data),
      num_clients_(num_clients),
      ctx_(ctx) {
  COMFEDSV_CHECK(model_ != nullptr);
  COMFEDSV_CHECK(test_data_ != nullptr);
  COMFEDSV_CHECK_GT(num_clients_, 0);
  COMFEDSV_CHECK_LE(num_clients_, kMaxFullClients);
}

void FullUtilityRecorder::OnRound(const RoundRecord& record) {
  RoundUtility utility(model_, test_data_, &record, ctx_);
  OnRound(record, &utility);
}

void FullUtilityRecorder::OnRound(const RoundRecord& record,
                                  RoundUtility* utility) {
  COMFEDSV_CHECK(utility->record() == &record);
  // A round with no selected clients contributes zero to every valuation
  // metric (the FedSV evaluators skip it too): record nothing.
  if (record.selected.empty()) return;
  const int asker = utility->AddAsker(&stats_);
  const uint32_t num_cols = 1u << num_clients_;
  // Submit all 2^N - 1 coalitions in mask order: the batched engine
  // evaluates whole chunks per pass over the test set (parallelized over
  // fixed sub-blocks), and the reads below are cache hits.
  std::vector<Coalition> coalitions;
  coalitions.reserve(num_cols - 1);
  for (uint32_t mask = 1; mask < num_cols; ++mask) {
    Coalition c(num_clients_);
    for (int k = 0; k < num_clients_; ++k) {
      if (mask & (1u << k)) c.Add(k);
    }
    coalitions.push_back(std::move(c));
  }
  utility->EvaluateBatch(coalitions, asker);
  std::vector<double> row(num_cols, 0.0);
  for (uint32_t mask = 1; mask < num_cols; ++mask) {
    row[mask] = utility->Utility(coalitions[mask - 1], asker);
  }
  rows_.push_back(std::move(row));
}

FullRecorderState FullUtilityRecorder::SaveState() const {
  return {rows_, stats_};
}

Status FullUtilityRecorder::RestoreState(FullRecorderState state) {
  const size_t expected_cols = 1u << num_clients_;
  for (const std::vector<double>& row : state.rows) {
    if (row.size() != expected_cols) {
      return Status::InvalidArgument(
          "full recorder state row width does not match 2^num_clients");
    }
  }
  if (!state.stats.Valid()) {
    return Status::InvalidArgument("full recorder state counters invalid");
  }
  rows_ = std::move(state.rows);
  stats_ = state.stats;
  return Status::Ok();
}

Matrix FullUtilityRecorder::ToMatrix() const {
  COMFEDSV_CHECK(!rows_.empty());
  const size_t cols = rows_[0].size();
  Matrix out(rows_.size(), cols);
  for (size_t t = 0; t < rows_.size(); ++t) {
    COMFEDSV_CHECK_EQ(rows_[t].size(), cols);
    std::copy(rows_[t].begin(), rows_[t].end(), out.RowPtr(t));
  }
  return out;
}

ObservedUtilityRecorder::ObservedUtilityRecorder(const Model* model,
                                                 const Dataset* test_data,
                                                 int num_clients,
                                                 ExecutionContext* ctx)
    : model_(model),
      test_data_(test_data),
      num_clients_(num_clients),
      ctx_(ctx) {
  COMFEDSV_CHECK(model_ != nullptr);
  COMFEDSV_CHECK(test_data_ != nullptr);
  COMFEDSV_CHECK_GT(num_clients_, 0);
  // Anchor the empty coalition as column 0.
  interner_.Intern(Coalition(num_clients_));
}

void ObservedUtilityRecorder::OnRound(const RoundRecord& record) {
  RoundUtility utility(model_, test_data_, &record, ctx_);
  OnRound(record, &utility);
}

void ObservedUtilityRecorder::OnRound(const RoundRecord& record,
                                      RoundUtility* utility) {
  COMFEDSV_CHECK(utility->record() == &record);
  // Nothing is observable in a round with no selected clients: skip it
  // (no triplets, no row) rather than emitting an all-empty row.
  if (record.selected.empty()) return;
  const int t = rounds_recorded_;
  const int m = static_cast<int>(record.selected.size());
  COMFEDSV_CHECK_LE(m, kMaxObservedClients);  // 2^m utilities below
  const int asker = utility->AddAsker(&stats_);

  // Evaluate all 2^m - 1 non-empty observable utilities through the
  // batched engine (a few test-set passes instead of one per coalition),
  // then intern and append sequentially in mask order so column ids
  // never depend on thread scheduling.
  const int num_masks = (1 << m) - 1;
  std::vector<Coalition> coalitions;
  coalitions.reserve(num_masks);
  for (int i = 0; i < num_masks; ++i) {
    const uint32_t mask = static_cast<uint32_t>(i) + 1;
    Coalition c(num_clients_);
    for (int p = 0; p < m; ++p) {
      if (mask & (1u << p)) c.Add(record.selected[p]);
    }
    coalitions.push_back(std::move(c));
  }
  utility->EvaluateBatch(coalitions, asker);

  // The empty coalition is observed at 0 every round (u_t(w^t) = 0).
  triplets_.reserve(triplets_.size() + static_cast<size_t>(num_masks) + 1);
  triplets_.push_back({t, 0, 0.0});
  for (int i = 0; i < num_masks; ++i) {
    const int col = interner_.Intern(coalitions[i]);
    triplets_.push_back({t, col, utility->Utility(coalitions[i], asker)});
  }
  ++rounds_recorded_;
}

ObservationSet ObservedUtilityRecorder::BuildObservations() const {
  COMFEDSV_CHECK_GT(rounds_recorded_, 0);
  ObservationSet obs(rounds_recorded_, interner_.size());
  obs.AddAll(triplets_);
  obs.Finalize();
  return obs;
}

ObservedRecorderState ObservedUtilityRecorder::SaveState() const {
  return {interner_, triplets_, rounds_recorded_, stats_};
}

Status ObservedUtilityRecorder::RestoreState(ObservedRecorderState state) {
  if (state.interner.size() < 1 ||
      state.interner.Get(0).universe_size() != num_clients_ ||
      !state.interner.Get(0).IsEmpty()) {
    return Status::InvalidArgument(
        "observed recorder state interner does not anchor the empty "
        "coalition of this client universe at column 0");
  }
  if (state.rounds_recorded < 0 || !state.stats.Valid()) {
    return Status::InvalidArgument("observed recorder state counters invalid");
  }
  for (const Observation& o : state.triplets) {
    if (o.row < 0 || o.row >= state.rounds_recorded || o.col < 0 ||
        o.col >= state.interner.size()) {
      return Status::InvalidArgument(
          "observed recorder state triplet out of range");
    }
  }
  interner_ = std::move(state.interner);
  triplets_ = std::move(state.triplets);
  rounds_recorded_ = state.rounds_recorded;
  stats_ = state.stats;
  return Status::Ok();
}

SampledUtilityRecorder::SampledUtilityRecorder(const Model* model,
                                               const Dataset* test_data,
                                               int num_clients,
                                               int num_permutations,
                                               uint64_t seed,
                                               SamplerConfig sampler,
                                               ExecutionContext* ctx)
    : model_(model),
      test_data_(test_data),
      num_clients_(num_clients),
      sampler_(sampler),
      ctx_(ctx) {
  COMFEDSV_CHECK(model_ != nullptr);
  COMFEDSV_CHECK(test_data_ != nullptr);
  COMFEDSV_CHECK_GT(num_clients_, 0);
  COMFEDSV_CHECK_GT(num_permutations, 0);
  COMFEDSV_CHECK_OK(ValidateSamplerConfig(sampler_));

  Rng rng(seed ^ 0x414C4731ULL);  // "ALG1"
  std::vector<int> identity(num_clients_);
  for (int i = 0; i < num_clients_; ++i) identity[i] = i;
  // The reset-between-draws convention reproduces the pre-sampler
  // Rng::Permutation sequence bit for bit in uniform mode.
  permutations_ = DrawOrderings(sampler_, identity, num_permutations, &rng,
                                /*reset_between_draws=*/true);
  prefix_columns_.reserve(num_permutations);
  // Intern every prefix of every permutation; identical prefixes across
  // permutations (e.g. the empty prefix) share a column.
  for (const std::vector<int>& perm : permutations_) {
    std::vector<int> cols;
    cols.reserve(num_clients_ + 1);
    Coalition prefix(num_clients_);
    cols.push_back(interner_.Intern(prefix));
    for (int member : perm) {
      prefix.Add(member);
      cols.push_back(interner_.Intern(prefix));
    }
    prefix_columns_.push_back(std::move(cols));
  }
}

void SampledUtilityRecorder::OnRound(const RoundRecord& record) {
  RoundUtility utility(model_, test_data_, &record, ctx_);
  OnRound(record, &utility);
}

void SampledUtilityRecorder::OnRound(const RoundRecord& record,
                                     RoundUtility* utility) {
  COMFEDSV_CHECK(utility->record() == &record);
  // Nothing is observable in a round with no selected clients: skip it
  // (no triplets, no row), matching the FedSV evaluators' convention.
  if (record.selected.empty()) return;
  const int t = rounds_recorded_;
  const int asker = utility->AddAsker(&stats_);
  const Coalition selected =
      Coalition::FromMembers(num_clients_, record.selected);
  if (sampler_.kind == SamplerKind::kTruncated) {
    RecordTruncatedRound(t, selected, utility, asker);
  } else {
    RecordPrefixRound(t, selected, utility, asker);
  }
  ++rounds_recorded_;
}

void SampledUtilityRecorder::RecordPrefixRound(int t,
                                               const Coalition& selected,
                                               RoundUtility* utility,
                                               int asker) {
  // Discover the distinct observable prefixes first (cheap — no loss
  // evaluations), deduped in permutation order: several permutations
  // share short prefixes. The discovery order is sequential, so the
  // recorded triplet order is deterministic for any thread count.
  struct PendingPrefix {
    int col = 0;
    Coalition coalition;
  };
  std::vector<PendingPrefix> pending;
  std::unordered_set<int> seen;
  seen.insert(prefix_columns_[0][0]);  // empty prefix, recorded at 0
  for (size_t m = 0; m < permutations_.size(); ++m) {
    Coalition prefix(num_clients_);
    for (int l = 0; l < num_clients_; ++l) {
      const int member = permutations_[m][l];
      if (!selected.Contains(member)) break;  // longer prefixes fail too
      prefix.Add(member);
      const int col = prefix_columns_[m][l + 1];
      if (seen.insert(col).second) pending.push_back({col, prefix});
    }
  }

  // Evaluate the distinct prefixes through the batched engine: a few
  // test-set passes instead of one per prefix.
  std::vector<Coalition> coalitions;
  coalitions.reserve(pending.size());
  for (const PendingPrefix& p : pending) coalitions.push_back(p.coalition);
  utility->EvaluateBatch(coalitions, asker);

  triplets_.reserve(triplets_.size() + pending.size() + 1);
  triplets_.push_back({t, prefix_columns_[0][0], 0.0});
  for (size_t i = 0; i < pending.size(); ++i) {
    triplets_.push_back(
        {t, pending[i].col, utility->Utility(coalitions[i], asker)});
  }
}

void SampledUtilityRecorder::RecordTruncatedRound(int t,
                                                  const Coalition& selected,
                                                  RoundUtility* utility,
                                                  int asker) {
  // TMC-style truncated recording: walk every permutation's observable
  // prefixes position-by-position in batched waves, and stop *measuring*
  // a permutation once its observed utility is within the tolerance of
  // U_t(I_t). The truncated tail's observable prefixes are still
  // recorded — at the U_t(I_t) reference value, which the truncation
  // premise bounds within the tolerance of their true utilities — but
  // their loss calls are never spent. Recording (rather than skipping)
  // the tail matters for the completion: under Assumption 1 every prefix
  // column is observable in round 0, and a column with no observations
  // at all would keep its random factor initialization and poison the
  // Eq. 12 walk. One extra loss call per round buys the reference. All
  // decisions depend only on utilities, so the recording is identical
  // for any thread count.
  const double selected_utility = utility->Utility(selected, asker);

  struct Walk {
    Coalition prefix;
    bool truncated = false;  // past the tolerance point: record, don't measure
    bool active = true;      // still inside I_t
  };
  std::vector<Walk> walks(permutations_.size());
  for (Walk& w : walks) w.prefix = Coalition(num_clients_);

  std::unordered_set<int> seen;
  seen.insert(prefix_columns_[0][0]);  // empty prefix, recorded at 0
  triplets_.push_back({t, prefix_columns_[0][0], 0.0});

  std::vector<Coalition> wave;
  std::vector<uint8_t> measuring(walks.size());
  for (int l = 0; l < num_clients_; ++l) {
    wave.clear();
    bool any_active = false;
    for (size_t m = 0; m < permutations_.size(); ++m) {
      Walk& w = walks[m];
      measuring[m] = 0;
      if (!w.active) continue;
      const int member = permutations_[m][l];
      if (!selected.Contains(member)) {  // longer prefixes fail too
        w.active = false;
        continue;
      }
      any_active = true;
      w.prefix.Add(member);
      if (!w.truncated) {
        measuring[m] = 1;
        wave.push_back(w.prefix);
      }
    }
    if (!any_active) break;
    if (!wave.empty()) {
      // Dedups within the wave and against the cache.
      utility->EvaluateBatch(wave, asker);
    }

    // Read back in permutation order (deterministic), measuring walks
    // first so a column reached by both a measuring and a truncated walk
    // in the same wave records its measured value; record each column
    // the first time any permutation reaches it, then apply truncation.
    for (size_t m = 0; m < permutations_.size(); ++m) {
      if (!measuring[m]) continue;
      Walk& w = walks[m];
      const double u = utility->Utility(w.prefix, asker);
      const int col = prefix_columns_[m][l + 1];
      if (seen.insert(col).second) triplets_.push_back({t, col, u});
      if (std::abs(selected_utility - u) <= sampler_.truncation_tolerance) {
        w.truncated = true;
      }
    }
    for (size_t m = 0; m < permutations_.size(); ++m) {
      const Walk& w = walks[m];
      if (!w.active || measuring[m]) continue;
      // Tail of a walk truncated in an earlier wave: approximate by the
      // reference value.
      const int col = prefix_columns_[m][l + 1];
      if (seen.insert(col).second) {
        triplets_.push_back({t, col, selected_utility});
      }
    }
  }
}

ObservationSet SampledUtilityRecorder::BuildObservations() const {
  COMFEDSV_CHECK_GT(rounds_recorded_, 0);
  ObservationSet obs(rounds_recorded_, interner_.size());
  obs.AddAll(triplets_);
  obs.Finalize();
  return obs;
}

SampledRecorderState SampledUtilityRecorder::SaveState() const {
  SampledRecorderState state;
  state.triplets = triplets_;
  state.rounds_recorded = rounds_recorded_;
  state.stats = stats_;
  return state;
}

Status SampledUtilityRecorder::RestoreState(SampledRecorderState state) {
  if (state.rounds_recorded < 0 || !state.stats.Valid()) {
    return Status::InvalidArgument("sampled recorder state counters invalid");
  }
  for (const Observation& o : state.triplets) {
    if (o.row < 0 || o.row >= state.rounds_recorded || o.col < 0 ||
        o.col >= interner_.size()) {
      return Status::InvalidArgument(
          "sampled recorder state triplet out of range "
          "(was the recorder built with the same seed/budget/sampler?)");
    }
  }
  triplets_ = std::move(state.triplets);
  rounds_recorded_ = state.rounds_recorded;
  stats_ = state.stats;
  return Status::Ok();
}

}  // namespace comfedsv
