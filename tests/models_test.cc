// Model tests: analytic-vs-numeric gradients, loss decrease under GD,
// prediction consistency, and parameter-layout sanity for all three
// architectures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/image_sim.h"
#include "data/synthetic.h"
#include "models/cnn.h"
#include "models/gradient_check.h"
#include "models/logistic.h"
#include "models/mlp.h"

namespace comfedsv {
namespace {

Dataset SmallData(int samples, int dim, int classes, uint64_t seed) {
  Rng rng(seed);
  Matrix feats(samples, dim);
  std::vector<int> labels(samples);
  for (int i = 0; i < samples; ++i) {
    for (int j = 0; j < dim; ++j) feats(i, j) = rng.NextGaussian();
    labels[i] = static_cast<int>(rng.NextUint64(classes));
  }
  return Dataset(std::move(feats), std::move(labels), classes);
}

// ---------------------------------------------------------------------
// Parameter counts.

TEST(ModelShapeTest, LogisticParamCount) {
  LogisticRegression m(20, 7);
  EXPECT_EQ(m.num_params(), 20u * 7u + 7u);
  EXPECT_EQ(m.input_dim(), 20u);
  EXPECT_EQ(m.num_classes(), 7);
  EXPECT_EQ(m.name(), "logistic");
}

TEST(ModelShapeTest, MlpParamCount) {
  Mlp m({10, 8, 4});
  // (10*8 + 8) + (8*4 + 4) = 88 + 36 = 124.
  EXPECT_EQ(m.num_params(), 124u);
  EXPECT_EQ(m.num_layers(), 2);
  EXPECT_EQ(m.name(), "mlp");
}

TEST(ModelShapeTest, CnnParamCount) {
  CnnConfig cfg;
  cfg.image_side = 8;
  cfg.channels = 1;
  cfg.num_filters = 4;
  cfg.num_classes = 10;
  Cnn m(cfg);
  // conv: 4*1*9 + 4 = 40; pooled: 4 * 3 * 3 = 36; fc: 36*10 + 10 = 370.
  EXPECT_EQ(m.conv_side(), 6);
  EXPECT_EQ(m.pool_side(), 3);
  EXPECT_EQ(m.pooled_dim(), 36u);
  EXPECT_EQ(m.num_params(), 40u + 370u);
  EXPECT_EQ(m.input_dim(), 64u);
}

// ---------------------------------------------------------------------
// Gradient checks (the decisive correctness tests).

TEST(GradientCheckTest, LogisticAnalyticMatchesNumeric) {
  LogisticRegression model(6, 4, /*l2_penalty=*/0.01);
  Dataset data = SmallData(12, 6, 4, 1);
  Rng rng(2);
  Vector params;
  model.InitializeParams(&params, &rng, 0.3);
  EXPECT_LT(MaxRelativeGradientError(model, params, data), 1e-6);
}

TEST(GradientCheckTest, LogisticWithoutRegularizer) {
  LogisticRegression model(5, 3, 0.0);
  Dataset data = SmallData(8, 5, 3, 3);
  Rng rng(4);
  Vector params;
  model.InitializeParams(&params, &rng, 0.5);
  EXPECT_LT(MaxRelativeGradientError(model, params, data), 1e-6);
}

TEST(GradientCheckTest, MlpOneHiddenLayer) {
  Mlp model({6, 5, 3}, /*l2_penalty=*/0.02);
  Dataset data = SmallData(10, 6, 3, 5);
  Rng rng(6);
  Vector params;
  model.InitializeParams(&params, &rng, 0.4);
  EXPECT_LT(MaxRelativeGradientError(model, params, data), 1e-5);
}

TEST(GradientCheckTest, MlpTwoHiddenLayers) {
  Mlp model({5, 7, 6, 4}, 0.0);
  Dataset data = SmallData(9, 5, 4, 7);
  Rng rng(8);
  Vector params;
  model.InitializeParams(&params, &rng, 0.4);
  EXPECT_LT(MaxRelativeGradientError(model, params, data), 1e-5);
}

TEST(GradientCheckTest, CnnSingleChannel) {
  CnnConfig cfg;
  cfg.image_side = 6;
  cfg.channels = 1;
  cfg.num_filters = 3;
  cfg.num_classes = 4;
  cfg.l2_penalty = 0.01;
  Cnn model(cfg);
  Dataset data = SmallData(6, 36, 4, 9);
  Rng rng(10);
  Vector params;
  model.InitializeParams(&params, &rng, 0.4);
  EXPECT_LT(MaxRelativeGradientError(model, params, data), 1e-5);
}

TEST(GradientCheckTest, CnnThreeChannels) {
  CnnConfig cfg;
  cfg.image_side = 6;
  cfg.channels = 3;
  cfg.num_filters = 2;
  cfg.num_classes = 3;
  Cnn model(cfg);
  Dataset data = SmallData(5, 108, 3, 11);
  Rng rng(12);
  Vector params;
  model.InitializeParams(&params, &rng, 0.4);
  EXPECT_LT(MaxRelativeGradientError(model, params, data), 1e-5);
}

// ---------------------------------------------------------------------
// Training behaviour.

template <typename ModelT>
void ExpectGradientDescentDecreasesLoss(const ModelT& model,
                                        const Dataset& data, double lr,
                                        int steps) {
  Rng rng(13);
  Vector params;
  model.InitializeParams(&params, &rng);
  Vector grad;
  double prev = model.Loss(params, data);
  const double initial = prev;
  for (int i = 0; i < steps; ++i) {
    model.LossAndGradient(params, data, &grad);
    params.Axpy(-lr, grad);
  }
  const double final_loss = model.Loss(params, data);
  EXPECT_LT(final_loss, initial * 0.9);
}

TEST(TrainingTest, LogisticLossDecreases) {
  SimulatedImageConfig cfg;
  cfg.num_samples = 300;
  cfg.seed = 21;
  Dataset data = GenerateSimulatedImages(cfg);
  LogisticRegression model(data.dim(), 10, 1e-4);
  ExpectGradientDescentDecreasesLoss(model, data, 0.5, 60);
}

TEST(TrainingTest, MlpLossDecreases) {
  SimulatedImageConfig cfg;
  cfg.num_samples = 300;
  cfg.seed = 22;
  Dataset data = GenerateSimulatedImages(cfg);
  Mlp model({data.dim(), 16, 10});
  ExpectGradientDescentDecreasesLoss(model, data, 0.3, 80);
}

TEST(TrainingTest, CnnLossDecreases) {
  SimulatedImageConfig cfg;
  cfg.num_samples = 200;
  cfg.seed = 23;
  cfg.family = ImageFamily::kCifar10;
  Dataset data = GenerateSimulatedImages(cfg);
  CnnConfig mcfg;
  mcfg.image_side = 8;
  mcfg.channels = 3;
  mcfg.num_filters = 4;
  Cnn model(mcfg);
  ExpectGradientDescentDecreasesLoss(model, data, 0.2, 60);
}

TEST(TrainingTest, LogisticReachesHighAccuracyOnSeparableData) {
  // Argmax-linear labels are realizable by the model class.
  SyntheticConfig cfg;
  cfg.num_clients = 1;
  cfg.samples_per_client = 400;
  cfg.iid = true;
  cfg.dim = 20;
  cfg.num_classes = 5;
  cfg.seed = 31;
  Dataset data = GenerateSyntheticFederated(cfg)[0];
  LogisticRegression model(20, 5, 0.0);
  Rng rng(32);
  Vector params;
  model.InitializeParams(&params, &rng);
  Vector grad;
  for (int i = 0; i < 300; ++i) {
    model.LossAndGradient(params, data, &grad);
    params.Axpy(-1.0, grad);
  }
  EXPECT_GT(model.Accuracy(params, data), 0.8);
}

// ---------------------------------------------------------------------
// Prediction / loss consistency.

TEST(PredictionTest, AccuracyOneWhenLossNearZero) {
  // Overfit a tiny dataset; predictions must match labels.
  Dataset data = SmallData(6, 4, 3, 41);
  Mlp model({4, 12, 3});
  Rng rng(42);
  Vector params;
  model.InitializeParams(&params, &rng, 0.3);
  Vector grad;
  for (int i = 0; i < 2000; ++i) {
    model.LossAndGradient(params, data, &grad);
    params.Axpy(-0.5, grad);
  }
  if (model.Loss(params, data) < 0.05) {
    EXPECT_DOUBLE_EQ(model.Accuracy(params, data), 1.0);
  }
}

TEST(PredictionTest, LossIsMeanNegativeLogLikelihood) {
  // With zero parameters, softmax is uniform: loss = log(C).
  LogisticRegression model(5, 4, 0.0);
  Dataset data = SmallData(10, 5, 4, 51);
  Vector zeros(model.num_params());
  EXPECT_NEAR(model.Loss(zeros, data), std::log(4.0), 1e-12);
}

TEST(PredictionTest, L2PenaltyAddsQuadraticTerm) {
  LogisticRegression with(4, 3, 0.5);
  LogisticRegression without(4, 3, 0.0);
  Dataset data = SmallData(6, 4, 3, 61);
  Rng rng(62);
  Vector params;
  with.InitializeParams(&params, &rng, 0.3);
  EXPECT_NEAR(with.Loss(params, data),
              without.Loss(params, data) + 0.25 * params.Dot(params),
              1e-12);
}

TEST(PredictionTest, EmptyDatasetLossIsRegularizerOnly) {
  LogisticRegression model(3, 2, 0.2);
  Dataset empty(Matrix(0, 3), {}, 2);
  Vector params(model.num_params(), 0.5);
  EXPECT_NEAR(model.Loss(params, empty), 0.1 * params.Dot(params), 1e-12);
}

// ---------------------------------------------------------------------
// CNN oracle: a plain scalar forward/backward pass (one conv output at a
// time, running-max pooling) that the optimised Cnn must reproduce bit
// for bit. It fixes the per-output accumulation order documented in
// cnn.h: bias, then channel-major, kernel-row-major row sums, each row
// sum grouped as (w0*x0 + w1*x1) + w2*x2.

class ReferenceCnn {
 public:
  explicit ReferenceCnn(const CnnConfig& config) : config_(config) {
    conv_side_ = config_.image_side - kKernel + 1;
    pool_side_ = conv_side_ / 2;
    pooled_dim_ = static_cast<size_t>(config_.num_filters) * pool_side_ *
                  pool_side_;
    conv_bias_offset_ = static_cast<size_t>(config_.num_filters) *
                        config_.channels * kKernel * kKernel;
    fc_weights_offset_ = conv_bias_offset_ + config_.num_filters;
    fc_bias_offset_ = fc_weights_offset_ + pooled_dim_ * config_.num_classes;
  }

  double Loss(const Vector& params, const Dataset& data) const {
    ForwardState state;
    double total = 0.0;
    for (size_t i = 0; i < data.num_samples(); ++i) {
      total += ForwardSample(params, data.sample(i), data.label(i), &state);
    }
    double mean = data.empty()
                      ? 0.0
                      : total / static_cast<double>(data.num_samples());
    return mean + 0.5 * config_.l2_penalty * params.Dot(params);
  }

  double LossAndGradient(const Vector& params, const Dataset& data,
                         Vector* grad) const {
    grad->Resize(params.size());
    grad->Fill(0.0);

    const int side = config_.image_side;
    const int cs = conv_side_;
    const int channels = config_.channels;
    const int classes = config_.num_classes;

    double* g_conv_w = grad->data();
    double* g_conv_b = grad->data() + conv_bias_offset_;
    double* g_fc_w = grad->data() + fc_weights_offset_;
    double* g_fc_b = grad->data() + fc_bias_offset_;
    const double* fc_w = params.data() + fc_weights_offset_;

    ForwardState state;
    std::vector<double> dlogit(classes);
    double total = 0.0;
    for (size_t i = 0; i < data.num_samples(); ++i) {
      const double* x = data.sample(i);
      const int y = data.label(i);
      total += ForwardSample(params, x, y, &state);

      for (int k = 0; k < classes; ++k) dlogit[k] = state.probs[k];
      dlogit[y] -= 1.0;

      for (int k = 0; k < classes; ++k) g_fc_b[k] += dlogit[k];
      for (size_t p = 0; p < pooled_dim_; ++p) {
        const double pooled = state.pooled[p];
        const double* w_row = fc_w + p * classes;
        double* gw_row = g_fc_w + p * classes;
        double dpool = 0.0;
        for (int k = 0; k < classes; ++k) {
          gw_row[k] += pooled * dlogit[k];
          dpool += w_row[k] * dlogit[k];
        }
        if (pooled <= 0.0) continue;
        const int conv_idx = state.argmax[p];
        const int f = conv_idx / (cs * cs);
        const int rc = conv_idx % (cs * cs);
        const int r = rc / cs;
        const int c = rc % cs;
        g_conv_b[f] += dpool;
        double* gwf =
            g_conv_w + static_cast<size_t>(f) * channels * kKernel * kKernel;
        for (int ch = 0; ch < channels; ++ch) {
          const double* img = x + static_cast<size_t>(ch) * side * side;
          double* gw_ch = gwf + static_cast<size_t>(ch) * kKernel * kKernel;
          for (int dr = 0; dr < kKernel; ++dr) {
            const double* img_row = img + (r + dr) * side + c;
            double* gw_row2 = gw_ch + dr * kKernel;
            gw_row2[0] += dpool * img_row[0];
            gw_row2[1] += dpool * img_row[1];
            gw_row2[2] += dpool * img_row[2];
          }
        }
      }
    }

    const double inv_n =
        data.empty() ? 0.0 : 1.0 / static_cast<double>(data.num_samples());
    grad->Scale(inv_n);
    grad->Axpy(config_.l2_penalty, params);
    return total * inv_n + 0.5 * config_.l2_penalty * params.Dot(params);
  }

  int Predict(const Vector& params, const double* x) const {
    ForwardState state;
    ForwardSample(params, x, /*label=*/-1, &state);
    return static_cast<int>(
        std::max_element(state.probs.begin(), state.probs.end()) -
        state.probs.begin());
  }

 private:
  static constexpr int kKernel = 3;

  struct ForwardState {
    std::vector<double> conv;
    std::vector<double> pooled;
    std::vector<int> argmax;
    std::vector<double> probs;
  };

  double ForwardSample(const Vector& params, const double* x, int label,
                       ForwardState* state) const {
    const int side = config_.image_side;
    const int cs = conv_side_;
    const int ps = pool_side_;
    const int filters = config_.num_filters;
    const int channels = config_.channels;
    const int classes = config_.num_classes;

    const double* conv_w = params.data();
    const double* conv_b = params.data() + conv_bias_offset_;
    const double* fc_w = params.data() + fc_weights_offset_;
    const double* fc_b = params.data() + fc_bias_offset_;

    state->conv.assign(static_cast<size_t>(filters) * cs * cs, 0.0);
    state->pooled.assign(pooled_dim_, 0.0);
    state->argmax.assign(pooled_dim_, 0);
    state->probs.assign(classes, 0.0);

    for (int f = 0; f < filters; ++f) {
      const double* wf =
          conv_w + static_cast<size_t>(f) * channels * kKernel * kKernel;
      double* out = state->conv.data() + static_cast<size_t>(f) * cs * cs;
      for (int r = 0; r < cs; ++r) {
        for (int c = 0; c < cs; ++c) {
          double acc = conv_b[f];
          for (int ch = 0; ch < channels; ++ch) {
            const double* img = x + static_cast<size_t>(ch) * side * side;
            const double* wch =
                wf + static_cast<size_t>(ch) * kKernel * kKernel;
            for (int dr = 0; dr < kKernel; ++dr) {
              const double* img_row = img + (r + dr) * side + c;
              const double* w_row = wch + dr * kKernel;
              acc += w_row[0] * img_row[0] + w_row[1] * img_row[1] +
                     w_row[2] * img_row[2];
            }
          }
          out[r * cs + c] = std::max(0.0, acc);
        }
      }
    }

    for (int f = 0; f < filters; ++f) {
      const double* conv =
          state->conv.data() + static_cast<size_t>(f) * cs * cs;
      for (int pr = 0; pr < ps; ++pr) {
        for (int pc = 0; pc < ps; ++pc) {
          int best_idx = (2 * pr) * cs + (2 * pc);
          double best = conv[best_idx];
          for (int dr = 0; dr < 2; ++dr) {
            for (int dc = 0; dc < 2; ++dc) {
              const int idx = (2 * pr + dr) * cs + (2 * pc + dc);
              if (conv[idx] > best) {
                best = conv[idx];
                best_idx = idx;
              }
            }
          }
          const size_t pool_idx =
              static_cast<size_t>(f) * ps * ps + pr * ps + pc;
          state->pooled[pool_idx] = best;
          state->argmax[pool_idx] = static_cast<int>(f) * cs * cs + best_idx;
        }
      }
    }

    for (int k = 0; k < classes; ++k) state->probs[k] = fc_b[k];
    for (size_t i = 0; i < pooled_dim_; ++i) {
      const double v = state->pooled[i];
      if (v == 0.0) continue;
      const double* w_row = fc_w + i * classes;
      for (int k = 0; k < classes; ++k) state->probs[k] += v * w_row[k];
    }
    double max_logit =
        *std::max_element(state->probs.begin(), state->probs.end());
    double sum = 0.0;
    for (double& v : state->probs) {
      v = std::exp(v - max_logit);
      sum += v;
    }
    for (double& v : state->probs) v /= sum;

    if (label < 0) return 0.0;
    return -std::log(std::max(state->probs[label], 1e-300));
  }

  CnnConfig config_;
  int conv_side_;
  int pool_side_;
  size_t pooled_dim_;
  size_t conv_bias_offset_;
  size_t fc_weights_offset_;
  size_t fc_bias_offset_;
};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Loss, LossAndGradient (loss and every gradient entry) and Predict on
// every sample must equal the reference's doubles exactly.
void ExpectCnnMatchesReference(const CnnConfig& cfg, const Vector& params,
                               const Dataset& data) {
  const Cnn model(cfg);
  const ReferenceCnn ref(cfg);
  ASSERT_EQ(params.size(), model.num_params());
  EXPECT_EQ(Bits(model.Loss(params, data)), Bits(ref.Loss(params, data)));

  Vector grad, ref_grad;
  EXPECT_EQ(Bits(model.LossAndGradient(params, data, &grad)),
            Bits(ref.LossAndGradient(params, data, &ref_grad)));
  ASSERT_EQ(grad.size(), ref_grad.size());
  for (size_t k = 0; k < grad.size(); ++k) {
    ASSERT_EQ(Bits(grad[k]), Bits(ref_grad[k])) << "grad entry " << k;
  }
  for (size_t i = 0; i < data.num_samples(); ++i) {
    ASSERT_EQ(model.Predict(params, data.sample(i)),
              ref.Predict(params, data.sample(i)))
        << "sample " << i;
  }
}

TEST(CnnOracleTest, BenchShapeBitIdenticalToScalarReference) {
  SimulatedImageConfig image;
  image.family = ImageFamily::kFashionMnist;
  image.image_side = 8;
  image.num_samples = 150;
  image.seed = 81;
  const Dataset data = GenerateSimulatedImages(image);
  for (double l2 : {0.0, 1e-4}) {
    SCOPED_TRACE("l2=" + std::to_string(l2));
    CnnConfig cfg;
    cfg.image_side = 8;
    cfg.channels = 1;
    cfg.num_filters = 6;
    cfg.num_classes = 10;
    cfg.l2_penalty = l2;
    const Cnn model(cfg);
    Rng rng(82);
    Vector params;
    for (double scale : {0.1, 0.5}) {
      model.InitializeParams(&params, &rng, scale);
      ExpectCnnMatchesReference(cfg, params, data);
    }
  }
}

TEST(CnnOracleTest, OddConvSideBitIdenticalToScalarReference) {
  // 9x9 input -> 7x7 conv -> 3x3 pool: the trailing conv row and column
  // are dropped by the pool.
  const Dataset data = SmallData(40, 3 * 9 * 9, 5, 83);
  for (double l2 : {0.0, 1e-4}) {
    SCOPED_TRACE("l2=" + std::to_string(l2));
    CnnConfig cfg;
    cfg.image_side = 9;
    cfg.channels = 3;
    cfg.num_filters = 4;
    cfg.num_classes = 5;
    cfg.l2_penalty = l2;
    const Cnn model(cfg);
    ASSERT_EQ(model.conv_side(), 7);
    ASSERT_EQ(model.pool_side(), 3);
    Rng rng(84);
    Vector params;
    for (double scale : {0.1, 0.5}) {
      model.InitializeParams(&params, &rng, scale);
      ExpectCnnMatchesReference(cfg, params, data);
    }
  }
}

TEST(CnnOracleTest, PoolTiesRouteGradientToFirstMaximum) {
  // One 6x6 single-channel image, one filter whose only nonzero tap is
  // the centre, zero bias: conv(r, c) = ReLU(x(r + 1, c + 1)), so the
  // input fixes every conv output. The 4x4 conv pools into 2x2 windows:
  //   window (0,0): all inputs negative -> four zeros after ReLU;
  //   window (0,1): conv(0,3) = conv(1,2) = 2, conv(0,2) = conv(1,3) = 1;
  //   windows (1,*): negative -> zeros.
  // Only window (0,1) is positive, so the conv-weight gradient is dpool
  // times the 3x3 patch under its argmax. The first maximum in
  // row-major window order is conv(0,3); conv(1,2) ties it.
  const int side = 6;
  std::vector<double> img(side * side, -1.0);
  auto at = [&](int r, int c) -> double& { return img[r * side + c]; };
  at(1, 3) = 1.0;  // conv(0,2)
  at(1, 4) = 2.0;  // conv(0,3): first maximum
  at(2, 3) = 2.0;  // conv(1,2): tied maximum, later in scan order
  at(2, 4) = 1.0;  // conv(1,3)
  // Border cells the patches read but the conv outputs above do not:
  // distinct values so the two tied patches differ in every tap.
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      if (r == 0 || c == 5) at(r, c) = 0.25 * (r * side + c + 1);
    }
  }
  Matrix feats(1, side * side);
  for (int j = 0; j < side * side; ++j) feats(0, j) = img[j];
  const Dataset data(std::move(feats), {1}, 2);

  CnnConfig cfg;
  cfg.image_side = side;
  cfg.channels = 1;
  cfg.num_filters = 1;
  cfg.num_classes = 2;
  cfg.l2_penalty = 0.0;
  const Cnn model(cfg);
  ASSERT_EQ(model.conv_side(), 4);
  ASSERT_EQ(model.pooled_dim(), 4u);
  Vector params(model.num_params(), 0.0);
  params[4] = 1.0;  // centre tap; the conv bias (index 9) stays 0
  // FC weights (pooled x classes) then FC bias: a nonzero delta for the
  // positive pooled cell (index 1).
  const size_t fc = 10;
  for (size_t p = 0; p < 4; ++p) {
    params[fc + p * 2] = 0.3 * (p + 1);
    params[fc + p * 2 + 1] = -0.2 * (p + 1);
  }

  ExpectCnnMatchesReference(cfg, params, data);

  Vector grad;
  model.LossAndGradient(params, data, &grad);
  const double g_bias = grad[9];  // = dpool for window (0,1)
  ASSERT_NE(g_bias, 0.0);
  // First maximum conv(0,3): patch rows 0..2, cols 3..5.
  for (int dr = 0; dr < 3; ++dr) {
    for (int dc = 0; dc < 3; ++dc) {
      EXPECT_DOUBLE_EQ(grad[dr * 3 + dc], g_bias * at(dr, 3 + dc))
          << "tap " << dr << "," << dc;
      // The tied conv(1,2) would read rows 1..3, cols 2..4 instead; the
      // centre tap is the tied value itself, so only the others differ.
      if (dr == 1 && dc == 1) continue;
      EXPECT_NE(grad[dr * 3 + dc], g_bias * at(1 + dr, 2 + dc))
          << "tap " << dr << "," << dc;
    }
  }
}

}  // namespace
}  // namespace comfedsv
