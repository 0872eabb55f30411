// Small convolutional network: conv(3x3, valid) -> ReLU -> maxpool(2x2)
// -> fully-connected -> softmax. This is the library's stand-in for the
// paper's CNN/VGG16 models (see DESIGN.md substitutions): it exercises a
// genuinely non-convex, weight-shared architecture through the same
// valuation pipeline.
#ifndef COMFEDSV_MODELS_CNN_H_
#define COMFEDSV_MODELS_CNN_H_

#include <string>
#include <vector>

#include "models/model.h"

namespace comfedsv {

/// Configuration of the small CNN.
struct CnnConfig {
  int image_side = 8;    ///< input is channels x side x side
  int channels = 1;      ///< 1 for MNIST-like, 3 for CIFAR-like
  int num_filters = 8;   ///< conv output channels
  int num_classes = 10;
  double l2_penalty = 0.0;
};

/// conv3x3(valid) -> ReLU -> maxpool2x2 -> FC -> softmax.
///
/// Input rows are images flattened channel-major:
/// x[ch * side * side + r * side + c].
/// Flat parameter layout: conv weights [filters][channels][3][3], conv
/// bias [filters], FC weights (pooled_dim x classes) row-major, FC bias
/// [classes].
///
/// Accumulation order. Loss, LossAndGradient and Predict share one
/// forward pass, and BatchLoss (a coalition-lane kernel,
/// cnn_lane_kernel.h) reproduces it lane by lane. Their bit-identity
/// depends on each double being summed in this order; any new kernel
/// must keep it:
///  - conv output (f, r, c) starts at bias[f], then adds one row sum per
///    channel ch (outer) and kernel row dr (inner), each grouped as
///    (w0*x[c] + w1*x[c+1]) + w2*x[c+2]; then ReLU as max(0.0, acc).
///    Outputs may be visited in any order (the pass does a row at a time).
///  - 2x2 pool: running strict-> max in row-major window order, so the
///    first maximal cell is the argmax on ties.
///  - logits start at the FC bias, then add pooled[i] * w[i][k] for
///    ascending i, skipping pooled[i] == 0. BatchLoss skips by a masked
///    select (t = z + v*w; z = v != 0 ? t : z), so a skipped cell leaves
///    the logit untouched even when w is ±inf or NaN.
class Cnn : public Model {
 public:
  explicit Cnn(const CnnConfig& config);

  size_t num_params() const override { return total_params_; }
  size_t input_dim() const override {
    return static_cast<size_t>(config_.channels) * config_.image_side *
           config_.image_side;
  }
  int num_classes() const override { return config_.num_classes; }
  std::string name() const override { return "cnn"; }

  double Loss(const Vector& params, const Dataset& data) const override;
  /// Runs the members of each block of 4 coalitions in SIMD lanes over
  /// the shared test images, on the widest kernel instantiation the CPU
  /// supports. Tasks are (lane block x fixed-size sample chunk) and each
  /// member's per-sample losses are summed in ascending sample order, so
  /// out[i] == Loss(row i) bit for bit at any thread count. A batch of
  /// one row runs Loss.
  void BatchLoss(const Matrix& param_rows, const Dataset& data,
                 std::vector<double>* out,
                 ExecutionContext* ctx = nullptr) const override;
  double LossAndGradient(const Vector& params, const Dataset& data,
                         Vector* grad) const override;
  int Predict(const Vector& params, const double* x) const override;

  void MixFingerprint(uint64_t* hash) const override;

  int conv_side() const { return conv_side_; }
  int pool_side() const { return pool_side_; }
  size_t pooled_dim() const { return pooled_dim_; }

 private:
  struct ForwardState {
    std::vector<double> conv;    // filters * conv_side^2, post-ReLU
    std::vector<double> pooled;  // filters * pool_side^2
    std::vector<int> argmax;     // index into conv for each pooled cell
    std::vector<double> probs;   // classes
  };

  double ForwardSample(const Vector& params, const double* x, int label,
                       ForwardState* state) const;

  CnnConfig config_;
  int conv_side_;
  int pool_side_;
  size_t pooled_dim_;
  size_t conv_weights_offset_;
  size_t conv_bias_offset_;
  size_t fc_weights_offset_;
  size_t fc_bias_offset_;
  size_t total_params_;
};

}  // namespace comfedsv

#endif  // COMFEDSV_MODELS_CNN_H_
