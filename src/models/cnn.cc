#include "models/cnn.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fingerprint.h"
#include "models/cnn_lane_kernel.h"

namespace comfedsv {
namespace {
constexpr int kKernel = internal::kCnnKernel;
}  // namespace

Cnn::Cnn(const CnnConfig& config) : config_(config) {
  COMFEDSV_CHECK_GE(config_.image_side, kKernel + 1);
  COMFEDSV_CHECK_GT(config_.channels, 0);
  COMFEDSV_CHECK_GT(config_.num_filters, 0);
  COMFEDSV_CHECK_GT(config_.num_classes, 1);
  COMFEDSV_CHECK_GE(config_.l2_penalty, 0.0);
  conv_side_ = config_.image_side - kKernel + 1;
  pool_side_ = conv_side_ / 2;
  COMFEDSV_CHECK_GT(pool_side_, 0);
  pooled_dim_ = static_cast<size_t>(config_.num_filters) * pool_side_ *
                pool_side_;

  const size_t conv_w =
      static_cast<size_t>(config_.num_filters) * config_.channels * kKernel *
      kKernel;
  conv_weights_offset_ = 0;
  conv_bias_offset_ = conv_w;
  fc_weights_offset_ = conv_bias_offset_ + config_.num_filters;
  fc_bias_offset_ =
      fc_weights_offset_ + pooled_dim_ * config_.num_classes;
  total_params_ = fc_bias_offset_ + config_.num_classes;
}

double Cnn::ForwardSample(const Vector& params, const double* x, int label,
                          ForwardState* state) const {
  const int side = config_.image_side;
  const int cs = conv_side_;
  const int ps = pool_side_;
  const int filters = config_.num_filters;
  const int channels = config_.channels;
  const int classes = config_.num_classes;

  const double* conv_w = params.data() + conv_weights_offset_;
  const double* conv_b = params.data() + conv_bias_offset_;
  const double* fc_w = params.data() + fc_weights_offset_;
  const double* fc_b = params.data() + fc_bias_offset_;

  // Every slot below is written before it is read, so no zero-fill.
  state->conv.resize(static_cast<size_t>(filters) * cs * cs);
  state->pooled.resize(pooled_dim_);
  state->argmax.resize(pooled_dim_);
  state->probs.resize(classes);

  // Convolution (valid) + ReLU, one output row at a time: the cs
  // outputs of a row are independent chains, so the inner c loop
  // vectorises while each output keeps the order documented in cnn.h.
  for (int f = 0; f < filters; ++f) {
    const double* wf =
        conv_w + static_cast<size_t>(f) * channels * kKernel * kKernel;
    double* out = state->conv.data() + static_cast<size_t>(f) * cs * cs;
    for (int r = 0; r < cs; ++r) {
      double* acc = out + r * cs;
      for (int c = 0; c < cs; ++c) acc[c] = conv_b[f];
      for (int ch = 0; ch < channels; ++ch) {
        const double* img = x + static_cast<size_t>(ch) * side * side;
        const double* wch = wf + static_cast<size_t>(ch) * kKernel * kKernel;
        for (int dr = 0; dr < kKernel; ++dr) {
          const double* row = img + (r + dr) * side;
          const double w0 = wch[dr * kKernel];
          const double w1 = wch[dr * kKernel + 1];
          const double w2 = wch[dr * kKernel + 2];
          for (int c = 0; c < cs; ++c) {
            acc[c] += w0 * row[c] + w1 * row[c + 1] + w2 * row[c + 2];
          }
        }
      }
      for (int c = 0; c < cs; ++c) acc[c] = std::max(0.0, acc[c]);
    }
  }

  // 2x2 max pooling (stride 2; trailing row/col dropped when cs is odd).
  // Running strict-> max in row-major window order, written as selects so
  // it compiles without branches: the first index wins ties.
  for (int f = 0; f < filters; ++f) {
    const double* conv = state->conv.data() + static_cast<size_t>(f) * cs * cs;
    for (int pr = 0; pr < ps; ++pr) {
      for (int pc = 0; pc < ps; ++pc) {
        const int i0 = (2 * pr) * cs + (2 * pc);
        const int idx[4] = {i0, i0 + 1, i0 + cs, i0 + cs + 1};
        double best = conv[i0];
        int best_idx = i0;
        for (int k = 1; k < 4; ++k) {
          const bool greater = conv[idx[k]] > best;
          best = greater ? conv[idx[k]] : best;
          best_idx = greater ? idx[k] : best_idx;
        }
        const size_t pool_idx =
            static_cast<size_t>(f) * ps * ps + pr * ps + pc;
        state->pooled[pool_idx] = best;
        state->argmax[pool_idx] = static_cast<int>(f) * cs * cs + best_idx;
      }
    }
  }

  // Fully connected + softmax.
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

void Cnn::MixFingerprint(uint64_t* hash) const {
  Model::MixFingerprint(hash);
  FingerprintMix(hash, static_cast<uint64_t>(config_.image_side));
  FingerprintMix(hash, static_cast<uint64_t>(config_.channels));
  FingerprintMix(hash, static_cast<uint64_t>(config_.num_filters));
  FingerprintMix(hash, config_.l2_penalty);
}

double Cnn::Loss(const Vector& params, const Dataset& data) const {
  COMFEDSV_CHECK_EQ(params.size(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), input_dim());
  ForwardState state;
  double total = 0.0;
  for (size_t i = 0; i < data.num_samples(); ++i) {
    total += ForwardSample(params, data.sample(i), data.label(i), &state);
  }
  double mean = data.empty() ? 0.0
                             : total / static_cast<double>(data.num_samples());
  return mean + 0.5 * config_.l2_penalty * params.Dot(params);
}

void Cnn::BatchLoss(const Matrix& param_rows, const Dataset& data,
                    std::vector<double>* out, ExecutionContext* ctx) const {
  // One coalition alone would fill one lane of a block and pay for four:
  // Loss is cheaper then.
  if (param_rows.rows() < 2) {
    Model::BatchLoss(param_rows, data, out, ctx);
    return;
  }
  internal::CnnLaneShape shape;
  shape.side = config_.image_side;
  shape.channels = config_.channels;
  shape.filters = config_.num_filters;
  shape.classes = config_.num_classes;
  shape.conv_side = conv_side_;
  shape.pool_side = pool_side_;
  shape.conv_w = conv_weights_offset_;
  shape.conv_b = conv_bias_offset_;
  shape.fc_w = fc_weights_offset_;
  shape.fc_b = fc_bias_offset_;
  internal::CnnLaneBatchLoss(internal::SupportedCnnLaneIsas().back(), shape,
                             config_.l2_penalty, param_rows, data, out, ctx);
}

double Cnn::LossAndGradient(const Vector& params, const Dataset& data,
                            Vector* grad) const {
  COMFEDSV_CHECK_EQ(params.size(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), input_dim());
  COMFEDSV_CHECK(grad != nullptr);
  grad->Resize(num_params());
  grad->Fill(0.0);

  const int side = config_.image_side;
  const int cs = conv_side_;
  const int channels = config_.channels;
  const int classes = config_.num_classes;

  double* g_conv_w = grad->data() + conv_weights_offset_;
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

    // FC gradients and pooled-layer deltas.
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
      // Route the delta through the pooling argmax; ReLU passes gradient
      // only where the activation was strictly positive.
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

int Cnn::Predict(const Vector& params, const double* x) const {
  ForwardState state;
  ForwardSample(params, x, /*label=*/-1, &state);
  return static_cast<int>(
      std::max_element(state.probs.begin(), state.probs.end()) -
      state.probs.begin());
}

}  // namespace comfedsv
