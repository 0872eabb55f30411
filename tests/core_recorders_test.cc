// Recorder tests: the three utility-matrix materializations agree with
// each other and with direct utility evaluation.
#include "core/recorders.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <utility>

#include "core/checkpointing.h"
#include "data/image_sim.h"
#include "data/partition.h"
#include "fl/fedavg.h"
#include "models/logistic.h"
#include "shapley/utility.h"

namespace comfedsv {
namespace {

struct Workload {
  std::vector<Dataset> clients;
  Dataset test;
};

Workload MakeWorkload(int num_clients, uint64_t seed) {
  SimulatedImageConfig cfg;
  cfg.num_samples = 60 * num_clients + 100;
  cfg.seed = seed;
  Dataset pool = GenerateSimulatedImages(cfg);
  Rng rng(seed + 1);
  auto [train_pool, test] = pool.RandomSplit(0.25, &rng);
  return {PartitionIid(train_pool, num_clients, &rng), std::move(test)};
}

FedAvgConfig SmallFedConfig(int rounds, int per_round, uint64_t seed) {
  FedAvgConfig cfg;
  cfg.num_rounds = rounds;
  cfg.clients_per_round = per_round;
  cfg.select_all_first_round = true;
  cfg.lr = LearningRateSchedule::Constant(0.3);
  cfg.seed = seed;
  return cfg;
}

TEST(FullUtilityRecorderTest, MatrixShapeAndEmptyColumn) {
  Workload w = MakeWorkload(4, 3);
  LogisticRegression model(w.test.dim(), 10);
  FullUtilityRecorder recorder(&model, &w.test, 4);
  FedAvgTrainer trainer(&model, w.clients, w.test,
                        SmallFedConfig(3, 2, 7));
  ASSERT_TRUE(trainer.Train(&recorder).ok());
  Matrix u = recorder.ToMatrix();
  EXPECT_EQ(u.rows(), 3u);
  EXPECT_EQ(u.cols(), 16u);
  // Column 0 is the empty coalition: always zero.
  for (size_t t = 0; t < 3; ++t) EXPECT_DOUBLE_EQ(u(t, 0), 0.0);
  // 2^N - 1 utility evaluations per round.
  EXPECT_EQ(recorder.stats().loss_calls, 3 * 15);
}

// The cost counters are part of the recorder state: a save/load/restore
// round trip brings back every UtilityStats field, and a state whose
// counters no accumulation can reach is refused — DataLoss from the
// decoder, InvalidArgument from RestoreState.
TEST(FullUtilityRecorderTest, StatsRoundTripThroughTheCheckpointState) {
  Workload w = MakeWorkload(4, 5);
  LogisticRegression model(w.test.dim(), 10);
  FullUtilityRecorder recorder(&model, &w.test, 4);
  FedAvgTrainer trainer(&model, w.clients, w.test,
                        SmallFedConfig(2, 2, 9));
  ASSERT_TRUE(trainer.Train(&recorder).ok());
  const UtilityStats& saved = recorder.stats();
  ASSERT_EQ(saved.loss_calls, 2 * 15);

  BinaryWriter out;
  SaveFullRecorderState(recorder.SaveState(), &out);
  BinaryReader in(out.buffer());
  FullRecorderState loaded;
  ASSERT_TRUE(LoadFullRecorderState(&in, &loaded).ok());
  FullUtilityRecorder restored(&model, &w.test, 4);
  ASSERT_TRUE(restored.RestoreState(std::move(loaded)).ok());
  EXPECT_EQ(restored.stats().loss_calls, saved.loss_calls);
  EXPECT_EQ(restored.stats().batched_calls, saved.batched_calls);
  EXPECT_EQ(restored.stats().memo_hits, saved.memo_hits);

  const std::pair<const char*, void (*)(UtilityStats*)> bad[] = {
      {"loss_calls", [](UtilityStats* s) { s->loss_calls = -1; }},
      {"batched_calls", [](UtilityStats* s) { s->batched_calls = -1; }},
      {"memo_hits", [](UtilityStats* s) { s->memo_hits = -1; }},
  };
  for (const auto& [what, corrupt] : bad) {
    FullRecorderState state = recorder.SaveState();
    corrupt(&state.stats);
    BinaryWriter bad_out;
    SaveFullRecorderState(state, &bad_out);
    BinaryReader bad_in(bad_out.buffer());
    FullRecorderState ignored;
    EXPECT_EQ(LoadFullRecorderState(&bad_in, &ignored).code(),
              StatusCode::kDataLoss)
        << what;
    FullUtilityRecorder target(&model, &w.test, 4);
    EXPECT_EQ(target.RestoreState(std::move(state)).code(),
              StatusCode::kInvalidArgument)
        << what;
  }
}

TEST(FullUtilityRecorderTest, EntriesMatchDirectUtility) {
  Workload w = MakeWorkload(3, 5);
  LogisticRegression model(w.test.dim(), 10);
  FullUtilityRecorder recorder(&model, &w.test, 3);

  // Capture the records to recompute utilities independently.
  struct Capture : RoundObserver {
    std::vector<RoundRecord> records;
    void OnRound(const RoundRecord& r) override { records.push_back(r); }
  } capture;

  FanoutObserver both;
  both.Register(&recorder);
  both.Register(&capture);

  FedAvgTrainer trainer(&model, w.clients, w.test,
                        SmallFedConfig(2, 2, 9));
  ASSERT_TRUE(trainer.Train(&both).ok());
  Matrix u = recorder.ToMatrix();
  for (size_t t = 0; t < capture.records.size(); ++t) {
    RoundUtility util(&model, &w.test, &capture.records[t]);
    for (uint32_t mask = 0; mask < 8; ++mask) {
      Coalition c(3);
      for (int i = 0; i < 3; ++i) {
        if (mask & (1u << i)) c.Add(i);
      }
      EXPECT_NEAR(u(t, mask), util.Utility(c), 1e-12)
          << "t=" << t << " mask=" << mask;
    }
  }
}

TEST(ObservedUtilityRecorderTest, FirstRoundObservesAllColumns) {
  Workload w = MakeWorkload(4, 11);
  LogisticRegression model(w.test.dim(), 10);
  ObservedUtilityRecorder recorder(&model, &w.test, 4);
  FedAvgTrainer trainer(&model, w.clients, w.test,
                        SmallFedConfig(4, 2, 13));
  ASSERT_TRUE(trainer.Train(&recorder).ok());
  // Assumption 1: round 0 selects everyone, interning all 2^4 columns.
  EXPECT_EQ(recorder.interner().size(), 16);
  ObservationSet obs = recorder.BuildObservations();
  EXPECT_EQ(obs.num_rows(), 4);
  EXPECT_EQ(obs.num_cols(), 16);
  // Round 0 contributes 16 entries (incl. empty), later rounds 4 each.
  EXPECT_EQ(obs.size(), 16u + 3u * 4u);
}

TEST(ObservedUtilityRecorderTest, ObservedEntriesAreSubsetsOfSelected) {
  Workload w = MakeWorkload(5, 15);
  LogisticRegression model(w.test.dim(), 10);
  ObservedUtilityRecorder recorder(&model, &w.test, 5);

  struct Capture : RoundObserver {
    std::vector<std::vector<int>> selected;
    void OnRound(const RoundRecord& r) override {
      selected.push_back(r.selected);
    }
  } capture;
  FanoutObserver both;
  both.Register(&recorder);
  both.Register(&capture);

  FedAvgTrainer trainer(&model, w.clients, w.test,
                        SmallFedConfig(5, 2, 17));
  ASSERT_TRUE(trainer.Train(&both).ok());
  ObservationSet obs = recorder.BuildObservations();
  for (const Observation& o : obs.entries()) {
    const Coalition& c = recorder.interner().Get(o.col);
    Coalition sel = Coalition::FromMembers(5, capture.selected[o.row]);
    EXPECT_TRUE(c.IsSubsetOf(sel))
        << "round " << o.row << " coalition not within I_t";
  }
}

TEST(SampledUtilityRecorderTest, PrefixColumnStructure) {
  Workload w = MakeWorkload(6, 19);
  LogisticRegression model(w.test.dim(), 10);
  SampledUtilityRecorder recorder(&model, &w.test, 6,
                                  /*num_permutations=*/5, /*seed=*/21);
  // 5 permutations of 6 clients: prefix table is 5 x 7; all length-0
  // prefixes share the empty column; full-set prefixes share one column.
  const auto& pc = recorder.prefix_columns();
  ASSERT_EQ(pc.size(), 5u);
  for (const auto& row : pc) ASSERT_EQ(row.size(), 7u);
  std::set<int> empty_cols, full_cols;
  for (const auto& row : pc) {
    empty_cols.insert(row[0]);
    full_cols.insert(row[6]);
  }
  EXPECT_EQ(empty_cols.size(), 1u);
  EXPECT_EQ(full_cols.size(), 1u);
  // Columns <= 5 * 5 distinct non-trivial prefixes + empty + full.
  EXPECT_LE(recorder.interner().size(), 5 * 5 + 2);
}

TEST(SampledUtilityRecorderTest, RecordsOnlyPrefixesInsideSelected) {
  Workload w = MakeWorkload(6, 23);
  LogisticRegression model(w.test.dim(), 10);
  SampledUtilityRecorder recorder(&model, &w.test, 6, 8, 25);

  struct Capture : RoundObserver {
    std::vector<std::vector<int>> selected;
    void OnRound(const RoundRecord& r) override {
      selected.push_back(r.selected);
    }
  } capture;
  FanoutObserver both;
  both.Register(&recorder);
  both.Register(&capture);

  FedAvgTrainer trainer(&model, w.clients, w.test,
                        SmallFedConfig(4, 2, 27));
  ASSERT_TRUE(trainer.Train(&both).ok());
  ObservationSet obs = recorder.BuildObservations();
  EXPECT_GT(obs.size(), 0u);
  for (const Observation& o : obs.entries()) {
    const Coalition& c = recorder.interner().Get(o.col);
    Coalition sel = Coalition::FromMembers(6, capture.selected[o.row]);
    EXPECT_TRUE(c.IsSubsetOf(sel));
  }
  // Round 0 (everyone selected) must observe every prefix column.
  std::set<int> round0_cols;
  for (const Observation& o : obs.entries()) {
    if (o.row == 0) round0_cols.insert(o.col);
  }
  EXPECT_EQ(static_cast<int>(round0_cols.size()),
            recorder.interner().size());
}

TEST(RecorderEmptyRoundTest, EmptySelectedRoundsAreSkipped) {
  // Bernoulli-style selection can produce a round with no selected
  // clients; every recorder must skip it (no triplets, no row, no loss
  // calls) instead of emitting an empty observation row.
  Workload w = MakeWorkload(3, 91);
  LogisticRegression model(w.test.dim(), 10);
  Vector params;
  Rng rng(5);
  model.InitializeParams(&params, &rng);

  RoundRecord real;
  real.round = 0;
  real.global_before = params;
  for (int i = 0; i < 3; ++i) {
    Vector local = params;
    local[0] += 0.01 * (i + 1);
    real.local_models.push_back(std::move(local));
  }
  real.selected = {0, 1, 2};
  real.test_loss_before = model.Loss(params, w.test);
  RoundRecord empty = real;
  empty.selected.clear();

  FullUtilityRecorder full(&model, &w.test, 3);
  full.OnRound(empty);
  EXPECT_EQ(full.stats().loss_calls, 0);
  full.OnRound(real);
  full.OnRound(empty);
  EXPECT_EQ(full.ToMatrix().rows(), 1u);

  ObservedUtilityRecorder observed(&model, &w.test, 3);
  observed.OnRound(empty);
  EXPECT_EQ(observed.rounds_recorded(), 0);
  EXPECT_EQ(observed.stats().loss_calls, 0);
  observed.OnRound(real);
  EXPECT_EQ(observed.rounds_recorded(), 1);

  for (SamplerKind kind :
       {SamplerKind::kUniformIid, SamplerKind::kTruncated}) {
    SamplerConfig cfg;
    cfg.kind = kind;
    SampledUtilityRecorder sampled(&model, &w.test, 3, 4, 7, cfg);
    sampled.OnRound(empty);
    EXPECT_EQ(sampled.rounds_recorded(), 0) << SamplerKindName(kind);
    EXPECT_EQ(sampled.stats().loss_calls, 0) << SamplerKindName(kind);
    sampled.OnRound(real);
    EXPECT_EQ(sampled.rounds_recorded(), 1) << SamplerKindName(kind);
  }
}

TEST(SampledUtilityRecorderTest, TruncatedModeSkipsTailLossCalls) {
  // Same seed => same permutations; only the walk behavior differs.
  // With tolerance 0 the truncated recorder measures exactly the uniform
  // recorder's entry set (plus at most one reference loss call per
  // round); with an effectively-infinite tolerance every permutation
  // truncates after its first position — far fewer loss calls — while
  // still *recording* every observable prefix column (at the U_t(I_t)
  // reference value), so the completion never sees an unobserved column.
  Workload w = MakeWorkload(6, 95);
  LogisticRegression model(w.test.dim(), 10);

  SampledUtilityRecorder uniform(&model, &w.test, 6, 5, 43);
  SamplerConfig tight;
  tight.kind = SamplerKind::kTruncated;
  tight.truncation_tolerance = 0.0;
  SampledUtilityRecorder truncated_tight(&model, &w.test, 6, 5, 43, tight);
  SamplerConfig loose;
  loose.kind = SamplerKind::kTruncated;
  loose.truncation_tolerance = 1e300;
  SampledUtilityRecorder truncated_loose(&model, &w.test, 6, 5, 43, loose);

  FanoutObserver fanout;
  fanout.Register(&uniform);
  fanout.Register(&truncated_tight);
  fanout.Register(&truncated_loose);
  FedAvgTrainer trainer(&model, w.clients, w.test,
                        SmallFedConfig(4, 3, 47));
  ASSERT_TRUE(trainer.Train(&fanout).ok());
  EXPECT_EQ(truncated_tight.permutations(), uniform.permutations());

  auto entry_set = [](const ObservationSet& obs) {
    std::set<std::tuple<int, int, double>> s;
    for (const Observation& o : obs.entries()) {
      s.insert({o.row, o.col, o.value});
    }
    return s;
  };
  auto cell_set = [](const ObservationSet& obs) {
    std::set<std::pair<int, int>> s;
    for (const Observation& o : obs.entries()) s.insert({o.row, o.col});
    return s;
  };
  ObservationSet uniform_obs = uniform.BuildObservations();
  ObservationSet tight_obs = truncated_tight.BuildObservations();
  ObservationSet loose_obs = truncated_loose.BuildObservations();

  // Zero tolerance: same observable prefixes (exact-equality truncation
  // can only fire on the last position), discovered wave-order instead
  // of permutation-order — the entry sets must match exactly, values
  // included.
  EXPECT_EQ(entry_set(tight_obs), entry_set(uniform_obs));
  EXPECT_GE(truncated_tight.stats().loss_calls, uniform.stats().loss_calls);
  // At most one extra U_t(I_t) reference call per recorded round.
  EXPECT_LE(truncated_tight.stats().loss_calls,
            uniform.stats().loss_calls + truncated_tight.rounds_recorded());

  // Effectively-infinite tolerance: every walk stops measuring after
  // position 0, but the observed (round, column) coverage is preserved —
  // the Assumption-1 anchor the completion relies on.
  EXPECT_LT(truncated_loose.stats().loss_calls, uniform.stats().loss_calls);
  EXPECT_EQ(cell_set(loose_obs), cell_set(uniform_obs));
}

TEST(SampledUtilityRecorderTest, SupportsManyClients) {
  // The Algorithm 1 path must work beyond the 2^N regime.
  Workload w = MakeWorkload(30, 29);
  LogisticRegression model(w.test.dim(), 10);
  SampledUtilityRecorder recorder(&model, &w.test, 30, 10, 31);
  FedAvgTrainer trainer(&model, w.clients, w.test,
                        SmallFedConfig(3, 5, 33));
  ASSERT_TRUE(trainer.Train(&recorder).ok());
  ObservationSet obs = recorder.BuildObservations();
  EXPECT_EQ(obs.num_rows(), 3);
  EXPECT_GT(obs.size(), 0u);
  EXPECT_GT(recorder.stats().loss_calls, 0);
}

}  // namespace
}  // namespace comfedsv
