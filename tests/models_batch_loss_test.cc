// BatchLoss equivalence: the batched coalition-loss engine must return
// exactly the doubles the sequential Loss path returns — bit-identical,
// not approximately — for every model, batch size, and thread count
// (the model.h BatchLoss contract). The same holds one level up for
// RoundUtility::EvaluateBatch vs the unbatched Utility path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/execution_context.h"
#include "models/batch_kernels.h"
#include "models/cnn.h"
#include "models/logistic.h"
#include "models/mlp.h"
#include "shapley/utility.h"

namespace comfedsv {
namespace {

Dataset MakeData(int samples, int dim, int classes, uint64_t seed,
                 bool with_zeros) {
  Rng rng(seed);
  Matrix feats(samples, dim);
  std::vector<int> labels(samples);
  for (int i = 0; i < samples; ++i) {
    for (int j = 0; j < dim; ++j) {
      // Exact zeros exercise the skip-zero branch both paths share.
      const bool zero = with_zeros && rng.NextBernoulli(0.3);
      feats(i, j) = zero ? 0.0 : rng.NextGaussian();
    }
    labels[i] = static_cast<int>(rng.NextUint64(classes));
  }
  return Dataset(std::move(feats), std::move(labels), classes);
}

Matrix RandomParams(const Model& model, int batch, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(batch, model.num_params());
  Vector params;
  for (int b = 0; b < batch; ++b) {
    model.InitializeParams(&params, &rng, 0.2);
    rows.SetRow(b, params);
  }
  return rows;
}

void ExpectBatchMatchesLoss(const Model& model, const Dataset& data,
                            uint64_t seed,
                            const std::vector<int>& batches = {1, 7, 64}) {
  for (int batch : batches) {
    const Matrix rows = RandomParams(model, batch, seed + batch);
    std::vector<double> sequential(batch);
    for (int b = 0; b < batch; ++b) {
      sequential[b] = model.Loss(rows.Row(b), data);
    }
    for (int threads : {1, 4}) {
      ExecutionContext ctx(threads);
      std::vector<double> batched;
      model.BatchLoss(rows, data, &batched, threads == 1 ? nullptr : &ctx);
      ASSERT_EQ(batched.size(), sequential.size());
      for (int b = 0; b < batch; ++b) {
        EXPECT_EQ(batched[b], sequential[b])
            << model.name() << " batch=" << batch << " threads=" << threads
            << " row=" << b;
      }
    }
  }
}

TEST(BatchLossTest, LogisticBitIdenticalToSequentialLoss) {
  const int dim = 67;  // awkward size: exercises tile remainder columns
  LogisticRegression model(dim, 10, 1e-3);
  ExpectBatchMatchesLoss(model, MakeData(101, dim, 10, 5, true), 11);
}

TEST(BatchLossTest, LogisticDenseNoRegularizer) {
  LogisticRegression model(64, 3, 0.0);
  ExpectBatchMatchesLoss(model, MakeData(64, 64, 3, 6, false), 12);
}

TEST(BatchLossTest, MlpBitIdenticalToSequentialLoss) {
  Mlp model({33, 17, 10}, 1e-4);  // odd widths: remainder paths
  ExpectBatchMatchesLoss(model, MakeData(75, 33, 10, 7, true), 13);
}

TEST(BatchLossTest, DeepMlpBitIdenticalToSequentialLoss) {
  Mlp model({24, 16, 8, 5}, 0.0);
  ExpectBatchMatchesLoss(model, MakeData(49, 24, 5, 8, true), 14);
}

TEST(BatchLossTest, SingleLayerMlpIsPureSoftmax) {
  Mlp model({20, 4}, 1e-3);  // no hidden layer: tail is softmax only
  ExpectBatchMatchesLoss(model, MakeData(31, 20, 4, 9, true), 15);
}

TEST(BatchLossTest, DefaultImplementationCoversCnn) {
  CnnConfig cfg;
  cfg.image_side = 6;
  cfg.channels = 1;
  cfg.num_filters = 3;
  cfg.num_classes = 4;
  Cnn model(cfg);
  ExpectBatchMatchesLoss(model, MakeData(20, 36, 4, 10, false), 16);
}

// Wide shapes, d >= 64 up to the rows where the tiled GEMM dominates the
// softmax tail: 256 samples, 10 classes, full chunks of 64 coalitions
// and one short batch of 8.
TEST(BatchLossTest, BenchShapesBitIdenticalToSequentialLoss) {
  struct Shape {
    bool mlp;
    int dim;
    int batch;
  };
  const Shape shapes[] = {
      {false, 64, 64}, {false, 256, 64}, {false, 1024, 64},
      {false, 256, 8}, {true, 192, 64},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("dim=" + std::to_string(shape.dim) +
                 " batch=" + std::to_string(shape.batch));
    const Dataset data = MakeData(256, shape.dim, 10, 51, false);
    if (shape.mlp) {
      Mlp model({static_cast<size_t>(shape.dim), 32, 10}, 1e-4);
      ExpectBatchMatchesLoss(model, data, 52, {shape.batch});
    } else {
      LogisticRegression model(shape.dim, 10, 1e-3);
      ExpectBatchMatchesLoss(model, data, 52, {shape.batch});
    }
  }
}

TEST(BatchLossTest, EmptyDatasetYieldsRegularizerOnly) {
  LogisticRegression model(16, 3, 1e-2);
  Dataset empty;
  Matrix feats(0, 16);
  empty = Dataset(std::move(feats), {}, 3);
  const Matrix rows = RandomParams(model, 7, 17);
  std::vector<double> batched;
  model.BatchLoss(rows, empty, &batched);
  for (int b = 0; b < 7; ++b) {
    EXPECT_EQ(batched[b], model.Loss(rows.Row(b), empty)) << b;
  }
}

// --- Tile kernels: every compiled width must agree with the scalar
// reference (the widths available depend on the build/CPU) ---

TEST(BatchLossTest, AllTileWidthsMatchScalarAffine) {
  const size_t dim = 37, width = 10, members = 8;
  const size_t pcols = dim * width + width;
  Rng rng(71);
  Matrix rows(members, pcols);
  for (size_t b = 0; b < members; ++b) {
    for (size_t k = 0; k < pcols; ++k) {
      rows(b, k) = rng.NextBernoulli(0.1) ? 0.0 : rng.NextGaussian();
    }
  }
  std::vector<double> x0(dim), x1(dim);
  for (size_t j = 0; j < dim; ++j) {
    x0[j] = rng.NextBernoulli(0.2) ? 0.0 : rng.NextGaussian();
    x1[j] = rng.NextBernoulli(0.2) ? 0.0 : rng.NextGaussian();
  }

  // Scalar reference: bias + ascending-j accumulation with zero skips.
  const size_t cols = members * width;
  auto reference = [&](const std::vector<double>& x) {
    std::vector<double> z(cols);
    for (size_t m = 0; m < members; ++m) {
      for (size_t u = 0; u < width; ++u) {
        double acc = rows(m, dim * width + u);
        for (size_t j = 0; j < dim; ++j) {
          const double xj = x[j];
          if (xj == 0.0) continue;
          acc += xj * rows(m, j * width + u);
        }
        z[m * width + u] = acc;
      }
    }
    return z;
  };
  const std::vector<double> ref0 = reference(x0);
  const std::vector<double> ref1 = reference(x1);

  for (size_t tile_cols : internal::SupportedTileCols()) {
    const internal::PackedAffineBlock pack = internal::PackAffineBlock(
        rows, 0, members, 0, dim * width, dim, width, tile_cols);
    ASSERT_EQ(pack.tile_cols, tile_cols);
    std::vector<double> z0(cols, -1.0), z1(cols, -1.0);
    internal::BatchedAffinePair(pack, x0.data(), x1.data(), z0.data(),
                                z1.data());
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(z0[c], ref0[c]) << "tile_cols=" << tile_cols << " col=" << c;
      EXPECT_EQ(z1[c], ref1[c]) << "tile_cols=" << tile_cols << " col=" << c;
    }
    // Odd tail: x1 == nullptr writes only z0.
    std::vector<double> z0_only(cols, -1.0);
    internal::BatchedAffinePair(pack, x0.data(), nullptr, z0_only.data(),
                                nullptr);
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(z0_only[c], ref0[c]) << "tile_cols=" << tile_cols;
    }
  }
}

// --- RoundUtility: batched engine vs the unbatched single path ---

RoundRecord MakeRoundRecord(const Model& model, const Dataset& test,
                            int num_clients, uint64_t seed) {
  RoundRecord rec;
  rec.round = 0;
  Rng rng(seed);
  Vector params;
  model.InitializeParams(&params, &rng, 0.2);
  rec.global_before = params;
  for (int k = 0; k < num_clients; ++k) {
    Vector local;
    model.InitializeParams(&local, &rng, 0.2);
    rec.local_models.push_back(std::move(local));
    rec.selected.push_back(k);
  }
  rec.test_loss_before = model.Loss(rec.global_before, test);
  return rec;
}

TEST(BatchLossTest, EvaluateBatchMatchesUnbatchedUtility) {
  const int n = 6;
  const int dim = 23;
  LogisticRegression model(dim, 5, 1e-3);
  Dataset test = MakeData(40, dim, 5, 21, true);
  RoundRecord rec = MakeRoundRecord(model, test, n, 22);

  // All non-empty coalitions of 6 clients, in mask order.
  std::vector<Coalition> coalitions;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    Coalition c(n);
    for (int k = 0; k < n; ++k) {
      if (mask & (1u << k)) c.Add(k);
    }
    coalitions.push_back(c);
  }

  UtilityStats unbatched_stats;
  RoundUtility unbatched(&model, &test, &rec, nullptr, &unbatched_stats);
  for (int threads : {1, 4}) {
    ExecutionContext ctx(threads);
    UtilityStats batched_stats;
    RoundUtility batched(&model, &test, &rec,
                         threads == 1 ? nullptr : &ctx, &batched_stats);
    batched.EvaluateBatch(coalitions);
    for (const Coalition& c : coalitions) {
      EXPECT_EQ(batched.Utility(c), unbatched.Utility(c)) << "threads="
                                                          << threads;
    }
    // One loss call per distinct coalition, exactly like the single path.
    EXPECT_EQ(batched_stats.loss_calls,
              static_cast<int64_t>(coalitions.size()));
    EXPECT_EQ(batched.distinct_evaluations(),
              static_cast<int64_t>(coalitions.size()));
  }
  EXPECT_EQ(unbatched_stats.loss_calls,
            static_cast<int64_t>(coalitions.size()));
}

// Every non-empty submission — whether through Utility() or a batch —
// must land in exactly one UtilityStats counter: a loss call, a memo
// hit, or a surrogate skip. Duplicates inside one submitted batch and
// entries already cached before the batch resolve as memo hits, so
// loss_calls + memo_hits always equals the number of non-empty
// submissions, with loss_calls == distinct coalitions.
TEST(BatchLossTest, EvaluateBatchStatsAccountEverySubmissionOnce) {
  const int n = 4;
  LogisticRegression model(8, 3, 0.0);
  Dataset test = MakeData(20, 8, 3, 41, false);
  RoundRecord rec = MakeRoundRecord(model, test, n, 42);

  Coalition a = Coalition::FromMembers(n, {0, 2});
  Coalition b = Coalition::FromMembers(n, {1, 3});
  Coalition c = Coalition::FromMembers(n, {0, 1, 2});

  UtilityStats stats;
  RoundUtility utility(&model, &test, &rec, nullptr, &stats);
  utility.Utility(a);  // pre-cache one entry before the batch
  EXPECT_EQ(stats.loss_calls, 1);
  EXPECT_EQ(stats.memo_hits, 0);

  // Batch: {a (cached), b, b (in-batch duplicate), c, empty}.
  std::vector<Coalition> batch = {a, b, b, c, Coalition(n)};
  utility.EvaluateBatch(batch);
  EXPECT_EQ(stats.loss_calls, 3);           // a, b, c each measured once
  EXPECT_EQ(stats.distinct_coalitions, 3);
  EXPECT_EQ(stats.memo_hits, 2);            // cached a + duplicate b
  EXPECT_EQ(stats.batched_calls, 1);

  // Resubmitting the whole batch resolves every non-empty entry as a
  // hit: the submission count and the counter total stay in lockstep.
  utility.EvaluateBatch(batch);
  EXPECT_EQ(stats.loss_calls, 3);
  EXPECT_EQ(stats.memo_hits, 6);
  EXPECT_EQ(stats.batched_calls, 1);        // nothing left to chunk
}

// Racing EvaluateBatch against concurrent Utility() queries for the
// same coalitions must keep the accounting deterministic: no matter
// which thread wins each cache fill, loss_calls equals the distinct
// coalition count and loss_calls + memo_hits equals the total number
// of non-empty submissions. (Regression: a batch chunk losing the
// fill race to Utility() used to count that submission nowhere,
// making the totals scheduling-dependent.)
TEST(BatchLossTest, EvaluateBatchRacingUtilityKeepsCountsDeterministic) {
  const int n = 5;
  LogisticRegression model(12, 3, 0.0);
  Dataset test = MakeData(24, 12, 3, 51, false);
  RoundRecord rec = MakeRoundRecord(model, test, n, 52);

  std::vector<Coalition> coalitions;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    Coalition c(n);
    for (int k = 0; k < n; ++k) {
      if (mask & (1u << k)) c.Add(k);
    }
    coalitions.push_back(c);
  }
  const int64_t distinct = static_cast<int64_t>(coalitions.size());

  ExecutionContext ctx(4);
  const int kQueryTasks = 3;
  for (int iter = 0; iter < 20; ++iter) {
    UtilityStats stats;
    RoundUtility utility(&model, &test, &rec, nullptr, &stats);
    ctx.ParallelFor(kQueryTasks + 1, [&](int task) {
      if (task == 0) {
        utility.EvaluateBatch(coalitions);
      } else {
        for (const Coalition& c : coalitions) (void)utility.Utility(c);
      }
    });
    const int64_t submissions = distinct * (kQueryTasks + 1);
    EXPECT_EQ(stats.loss_calls, distinct) << "iter=" << iter;
    EXPECT_EQ(stats.distinct_coalitions, distinct) << "iter=" << iter;
    EXPECT_EQ(stats.loss_calls + stats.memo_hits, submissions)
        << "iter=" << iter;
    EXPECT_EQ(utility.distinct_evaluations(), distinct) << "iter=" << iter;
  }
}

// The recording hot path's shape: Monte-Carlo permutation prefixes over
// a 70-client universe (two bitset words), an MLP whose parameter count
// is not a multiple of the aggregator's column-slice width, several
// BatchLoss chunks per call, duplicates, entries cached before the
// batch, and local models holding -0.0. Every cached utility must match
// the unbatched Utility() path byte for byte at 1, 2 and 4 threads, and
// the counters must match a submission-by-submission reference.
TEST(BatchLossTest, EvaluateBatchPermutationPrefixesBitIdentical) {
  const int n = 70;
  Mlp model({30, 11, 5}, 1e-4);  // 401 parameters
  ASSERT_NE(model.num_params() % 128, 0u);
  Dataset test = MakeData(25, 30, 5, 61, true);
  RoundRecord rec = MakeRoundRecord(model, test, n, 62);
  // -0.0 in every local model at two coordinates in different slices:
  // the ascending sum from 0.0 is +0.0, a sum seeded with the first
  // member would stay -0.0.
  for (Vector& local : rec.local_models) {
    local[5] = -0.0;
    local[300] = -0.0;
  }

  // 24 players spread over both words, 40 permutations of them.
  std::vector<int> players;
  for (int k = 1; k < n; k += 3) players.push_back(k);
  Rng rng(63);
  std::vector<Coalition> prefixes;
  for (int p = 0; p < 40; ++p) {
    std::vector<int> order = players;
    rng.Shuffle(&order);
    Coalition prefix(n);
    for (int member : order) {
      prefix.Add(member);
      prefixes.push_back(prefix);
    }
  }
  const std::vector<Coalition> cached_first = {
      prefixes[0], prefixes[30], Coalition::FromMembers(n, {1, 64, 67})};
  // Two submissions: the first half of the prefixes, then all of them
  // (so the second call mixes fresh, in-batch duplicate and cached).
  const std::vector<Coalition> first(prefixes.begin(),
                                     prefixes.begin() + prefixes.size() / 2);
  const std::vector<std::vector<Coalition>> calls = {first, prefixes};

  // Counter reference: one loss call per coalition not yet known, one
  // memo hit per repeat, ceil(new / 256) BatchLoss passes per call.
  UtilityStats expected;
  std::unordered_set<Coalition, CoalitionHash> known(cached_first.begin(),
                                                     cached_first.end());
  std::vector<Coalition> distinct = cached_first;  // first-seen order
  expected.loss_calls = static_cast<int64_t>(known.size());
  for (const std::vector<Coalition>& call : calls) {
    int64_t fresh = 0;
    for (const Coalition& c : call) {
      if (known.insert(c).second) {
        distinct.push_back(c);
        ++fresh;
      } else {
        ++expected.memo_hits;
      }
    }
    expected.loss_calls += fresh;
    expected.batched_calls += (fresh + 255) / 256;
  }
  ASSERT_GT(expected.loss_calls, 256);  // more than one chunk

  RoundUtility reference(&model, &test, &rec);
  for (int threads : {1, 2, 4}) {
    ExecutionContext ctx(threads);
    UtilityStats stats;
    RoundUtility batched(&model, &test, &rec, &ctx, &stats);
    for (const Coalition& c : cached_first) (void)batched.Utility(c);
    for (const std::vector<Coalition>& call : calls) {
      batched.EvaluateBatch(call);
    }
    EXPECT_EQ(stats.loss_calls, expected.loss_calls) << threads;
    EXPECT_EQ(stats.batched_calls, expected.batched_calls) << threads;
    EXPECT_EQ(stats.memo_hits, expected.memo_hits) << threads;
    for (const Coalition& c : distinct) {
      const double got = batched.Utility(c);
      const double want = reference.Utility(c);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "threads=" << threads << " got=" << got << " want=" << want;
    }
    // Every lookup above was a cache hit: nothing new was measured.
    EXPECT_EQ(stats.loss_calls, expected.loss_calls) << threads;
  }

  // The means themselves, through both aggregator entry points, against
  // the ascending sum from 0.0 that Utility() forms.
  const size_t params = model.num_params();
  auto expect_mean = [&](const Coalition& c, const double* got) {
    Vector want(params);
    c.ForEachMember([&](int k) { want.Axpy(1.0, rec.local_models[k]); });
    want.Scale(1.0 / c.Count());
    EXPECT_EQ(std::memcmp(got, want.data(), params * sizeof(double)), 0)
        << ::testing::PrintToString(c.Members());
  };
  // Submission order: the first permutation grows the chain buffer at
  // every step while sharing an ascending prefix with the last query.
  CoalitionAggregator single(&rec);
  std::vector<double> row(params);
  for (const Coalition& c : prefixes) {
    single.MeanInto(c, row.data());
    expect_mean(c, row.data());
  }
  std::sort(distinct.begin(), distinct.end(), Coalition::MemberListLess);
  Matrix means(distinct.size(), params);
  ExecutionContext ctx(4);
  CoalitionAggregator sliced(&rec);
  sliced.MeansInto(distinct.data(), distinct.size(), means.RowPtr(0), &ctx);
  for (size_t r = 0; r < distinct.size(); ++r) {
    expect_mean(distinct[r], means.RowPtr(r));
  }
}

TEST(BatchLossTest, EvaluateBatchDedupsResubmissions) {
  const int n = 4;
  LogisticRegression model(8, 3, 0.0);
  Dataset test = MakeData(20, 8, 3, 31, false);
  RoundRecord rec = MakeRoundRecord(model, test, n, 32);

  std::vector<Coalition> batch;
  Coalition a = Coalition::FromMembers(n, {0, 2});
  Coalition b = Coalition::FromMembers(n, {1, 2, 3});
  batch.push_back(a);
  batch.push_back(b);
  batch.push_back(a);               // duplicate within the batch
  batch.push_back(Coalition(n));    // empty: skipped, utility 0
  UtilityStats stats;
  RoundUtility utility(&model, &test, &rec, nullptr, &stats);
  utility.EvaluateBatch(batch);
  EXPECT_EQ(stats.loss_calls, 2);
  utility.EvaluateBatch(batch);     // fully cached: no new calls
  EXPECT_EQ(stats.loss_calls, 2);
  EXPECT_EQ(utility.Utility(Coalition(n)), 0.0);
}

}  // namespace
}  // namespace comfedsv
