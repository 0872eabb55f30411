// Coalition-lane forward pass behind Cnn::BatchLoss (internal).
//
// A batch of coalition models shares one test set, so CnnLaneBatchLoss
// (behind Cnn::BatchLoss) packs the members of each lane block
// (kCnnLanes parameter rows) lane-interleaved — packed[p * kCnnLanes +
// lane] is parameter p of member `lane` — and runs the forward pass once
// per test sample with every member in its own SIMD lane: each image
// pixel is loaded once and broadcast against the lane vector of weights.
//
// Bit-identity contract (model.h, cnn.h): every lane computes exactly
// the doubles Cnn::ForwardSample computes for that member, in the same
// order — the conv chain (bias, then channel-major and kernel-row-major
// row sums, each grouped (w0*x0 + w1*x1) + w2*x2), ReLU as
// `0 < a ? a : 0`, the strict-> pool in window order, the FC chain in
// ascending pooled order skipping exact-zero cells, and the softmax with
// the same exp/log calls. No FMA: a fused multiply-add would change
// rounding. The FC skip is a masked select, t = z + v*w; z = v != 0 ? t
// : z, so a skipped cell leaves z untouched even when w is ±inf or NaN
// (0*inf would be NaN) and a -0.0 bias stays -0.0.
//
// The kernel template below is compiled once per ISA: by batch_kernels.cc
// for the baseline, and by cnn_lane_kernel_avx2.cc with -mavx2. It sits
// in an unnamed namespace so each TU keeps its own copy; see the linkage
// rule in batch_kernels.h. Only register layout differs between
// instantiations: the native vector width and the FC class tile width.
#ifndef COMFEDSV_MODELS_CNN_LANE_KERNEL_H_
#define COMFEDSV_MODELS_CNN_LANE_KERNEL_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace comfedsv {

// Declared only: the -mavx2 TU includes this header, and any inline
// function it pulls in could be emitted there as a weak symbol.
class Dataset;
class ExecutionContext;
class Matrix;

namespace internal {

/// Coalition members per lane block: one vector of 4 doubles (a ymm
/// register under AVX2, two xmm registers in the baseline build).
inline constexpr size_t kCnnLanes = 4;

/// Side of the square conv kernel.
inline constexpr int kCnnKernel = 3;

/// The model shape the kernel loops take at run time, and the offsets of
/// Cnn's flat parameter layout (in parameters, not packed doubles).
struct CnnLaneShape {
  int side = 0;
  int channels = 0;
  int filters = 0;
  int classes = 0;
  int conv_side = 0;
  int pool_side = 0;
  size_t conv_w = 0;
  size_t conv_b = 0;
  size_t fc_w = 0;
  size_t fc_b = 0;
};

/// Doubles of per-call scratch the kernel needs: lane-interleaved conv
/// outputs, pooled cells and logits.
inline size_t CnnLaneScratchSize(const CnnLaneShape& s) {
  const size_t cells =
      static_cast<size_t>(s.filters) * s.conv_side * s.conv_side +
      static_cast<size_t>(s.filters) * s.pool_side * s.pool_side +
      static_cast<size_t>(s.classes);
  return cells * kCnnLanes;
}

/// Per-sample losses of one packed lane block over `count` samples:
/// sample i's features start at x + i * channels * side * side, its label
/// is labels[i], and losses[i * kCnnLanes + lane] receives lane's loss.
/// `scratch` holds CnnLaneScratchSize(shape) doubles.
using CnnLaneLossesFn = void (*)(const CnnLaneShape& shape,
                                 const double* packed, const double* x,
                                 const int* labels, size_t count,
                                 double* scratch, double* losses);

/// Instantiations of the kernel.
enum class CnnLaneIsa { kBaseline, kAvx2 };

/// Every instantiation the running process can execute, widest last: the
/// baseline, plus AVX2 when it is compiled in and the CPU supports it
/// (batch_kernels.cc, which dispatches every per-ISA kernel).
std::vector<CnnLaneIsa> SupportedCnnLaneIsas();

/// Entry point of `isa`, which must be one of SupportedCnnLaneIsas().
CnnLaneLossesFn CnnLaneKernel(CnnLaneIsa isa);

/// Cnn::BatchLoss on the kernel of `isa` (one of SupportedCnnLaneIsas()):
/// out[i] is the loss of parameter row i, mean per-sample loss plus
/// 0.5 * l2_penalty * |row|^2, bit for bit what Cnn::Loss returns at any
/// thread count. Packs each lane block once, runs (lane block x
/// fixed-size sample chunk) tasks over `ctx`, each writing its own
/// per-sample slots, then sums each member's losses in ascending sample
/// order from 0.0. A short last block repeats its first member; those
/// lanes' losses are never read.
void CnnLaneBatchLoss(CnnLaneIsa isa, const CnnLaneShape& shape,
                      double l2_penalty, const Matrix& param_rows,
                      const Dataset& data, std::vector<double>* out,
                      ExecutionContext* ctx);

namespace {

// A lane block is kCnnLanes / kW native vectors of kW doubles: one ymm
// register under AVX2 (kW = 4), two xmm registers in the baseline build
// (kW = 2; a 4-double vector there would compile its compares to scalar
// code). U is the same vector at 8-byte alignment (like the intrinsics
// headers' __m256d_u), so packed and scratch buffers need no vector
// alignment.
template <int kW>
struct LaneRegs;

template <>
struct LaneRegs<2> {
  typedef double V __attribute__((vector_size(16)));
  typedef double U __attribute__((vector_size(16), aligned(8), may_alias));
  static void Splat(double x, V& out) { out = V{x, x}; }
};

template <>
struct LaneRegs<4> {
  typedef double V __attribute__((vector_size(32)));
  typedef double U __attribute__((vector_size(32), aligned(8), may_alias));
  static void Splat(double x, V& out) { out = V{x, x, x, x}; }
};

// z = pick ? t : z, lane by lane; `pick` is a lane comparison mask.
// Arguments by reference: by value, a 32-byte vector changes the ABI
// of a call built without AVX.
template <typename V, typename Mask>
inline void SelectInto(const Mask& pick, const V& t, V& z) {
  z = (V)(((Mask)t & pick) | ((Mask)z & ~pick));
}

// Logits of classes [k0, k0 + kT): class accumulators stay in registers
// across the pooled loop. Buffers hold kParts native vectors per lane
// block, and fc_w row i starts at lane block i * classes.
template <int kW, int kT>
inline void CnnLaneFcTile(const typename LaneRegs<kW>::U* pooled,
                          size_t pooled_dim,
                          const typename LaneRegs<kW>::U* fc_w,
                          const typename LaneRegs<kW>::U* fc_b, int classes,
                          int k0, typename LaneRegs<kW>::U* logits) {
  using V = typename LaneRegs<kW>::V;
  constexpr int kParts = static_cast<int>(kCnnLanes) / kW;
  const V zero = {};
  V z[kT][kParts];
  for (int t = 0; t < kT; ++t) {
    for (int h = 0; h < kParts; ++h) z[t][h] = fc_b[(k0 + t) * kParts + h];
  }
  for (size_t i = 0; i < pooled_dim; ++i) {
    // Spelled out: `auto` deduces the plain vector type, dropping U's
    // aligned(8), and w[...] becomes an aligned load of an 8-aligned
    // address.
    const typename LaneRegs<kW>::U* w = fc_w + (i * classes + k0) * kParts;
    for (int h = 0; h < kParts; ++h) {
      const V v = pooled[i * kParts + h];
      const auto keep = v != zero;
      for (int t = 0; t < kT; ++t) {
        const V sum = z[t][h] + v * V(w[t * kParts + h]);
        SelectInto(keep, sum, z[t][h]);
      }
    }
  }
  for (int t = 0; t < kT; ++t) {
    for (int h = 0; h < kParts; ++h) {
      logits[(k0 + t) * kParts + h] = z[t][h];
    }
  }
}

template <int kW, int kClassTile>
void CnnLaneLossesImpl(const CnnLaneShape& g, const double* packed,
                       const double* x, const int* labels, size_t count,
                       double* scratch, double* losses) {
  using Regs = LaneRegs<kW>;
  using V = typename Regs::V;
  using U = typename Regs::U;
  constexpr int kParts = static_cast<int>(kCnnLanes) / kW;
  constexpr int kTaps = kCnnKernel * kCnnKernel;
  const int side = g.side;
  const int cs = g.conv_side;
  const int ps = g.pool_side;
  const int classes = g.classes;
  const size_t dim = static_cast<size_t>(g.channels) * side * side;
  const size_t conv_cells = static_cast<size_t>(cs) * cs;
  const size_t pool_cells = static_cast<size_t>(ps) * ps;
  const size_t pooled_dim = g.filters * pool_cells;

  // Lane block i of a buffer is its native vectors [i * kParts, +kParts).
  const U* params = reinterpret_cast<const U*>(packed);
  U* conv = reinterpret_cast<U*>(scratch);
  U* pooled = conv + g.filters * conv_cells * kParts;
  U* logits = pooled + pooled_dim * kParts;
  const V zero = {};

  for (size_t s = 0; s < count; ++s) {
    const double* xs = x + s * dim;

    // Convolution (valid): one pass per (filter, channel) with its nine
    // weight vectors in registers; each output adds its row sums in
    // channel-major, kernel-row-major order.
    for (int f = 0; f < g.filters; ++f) {
      U* out = conv + f * conv_cells * kParts;
      const U* bias = params + (g.conv_b + f) * kParts;
      for (int ch = 0; ch < g.channels; ++ch) {
        const U* wp =
            params +
            (g.conv_w + (static_cast<size_t>(f) * g.channels + ch) * kTaps) *
                kParts;
        V w[kTaps][kParts];
        for (int k = 0; k < kTaps; ++k) {
          for (int h = 0; h < kParts; ++h) w[k][h] = wp[k * kParts + h];
        }
        const double* img = xs + static_cast<size_t>(ch) * side * side;
        for (int r = 0; r < cs; ++r) {
          for (int c = 0; c < cs; ++c) {
            U* o = out + (r * cs + c) * kParts;
            V acc[kParts];
            for (int h = 0; h < kParts; ++h) {
              acc[h] = ch == 0 ? V(bias[h]) : V(o[h]);
            }
            for (int dr = 0; dr < kCnnKernel; ++dr) {
              const double* row = img + (r + dr) * side + c;
              V x0, x1, x2;
              Regs::Splat(row[0], x0);
              Regs::Splat(row[1], x1);
              Regs::Splat(row[2], x2);
              const V(*wr)[kParts] = w + dr * kCnnKernel;
              for (int h = 0; h < kParts; ++h) {
                acc[h] += (wr[0][h] * x0 + wr[1][h] * x1) + wr[2][h] * x2;
              }
            }
            for (int h = 0; h < kParts; ++h) o[h] = acc[h];
          }
        }
      }
      // ReLU as 0 < a ? a : 0 (std::max(0.0, a)): NaN and -0.0 become
      // +0.0.
      for (size_t i = 0; i < conv_cells * kParts; ++i) {
        const V a = out[i];
        V relu = zero;
        SelectInto(zero < a, a, relu);
        out[i] = relu;
      }
      // 2x2 max pool (stride 2): running strict-> max in window order.
      for (int pr = 0; pr < ps; ++pr) {
        for (int pc = 0; pc < ps; ++pc) {
          const int i0 = (2 * pr) * cs + (2 * pc);
          const int idx[4] = {i0, i0 + 1, i0 + cs, i0 + cs + 1};
          U* dst = pooled + (f * pool_cells + pr * ps + pc) * kParts;
          for (int h = 0; h < kParts; ++h) {
            V best = out[i0 * kParts + h];
            for (int k = 1; k < 4; ++k) {
              const V cand = out[idx[k] * kParts + h];
              SelectInto(cand > best, cand, best);
            }
            dst[h] = best;
          }
        }
      }
    }

    // Fully connected, in tiles of kClassTile classes, then one class at
    // a time.
    const U* fc_w = params + g.fc_w * kParts;
    const U* fc_b = params + g.fc_b * kParts;
    int k = 0;
    for (; k + kClassTile <= classes; k += kClassTile) {
      CnnLaneFcTile<kW, kClassTile>(pooled, pooled_dim, fc_w, fc_b, classes,
                                    k, logits);
    }
    for (; k < classes; ++k) {
      CnnLaneFcTile<kW, 1>(pooled, pooled_dim, fc_w, fc_b, classes, k,
                           logits);
    }

    // Softmax cross-entropy per lane, with ForwardSample's calls: the
    // first maximal logit (std::max_element), exp of each shifted logit
    // summed in class order, then -log(max(p, 1e-300)).
    const double* lg = reinterpret_cast<const double*>(logits);
    const int label = labels[s];
    for (size_t lane = 0; lane < kCnnLanes; ++lane) {
      double max_logit = lg[lane];
      for (int c = 1; c < classes; ++c) {
        const double v = lg[c * kCnnLanes + lane];
        if (max_logit < v) max_logit = v;
      }
      double sum = 0.0;
      double label_exp = 0.0;
      for (int c = 0; c < classes; ++c) {
        const double e = std::exp(lg[c * kCnnLanes + lane] - max_logit);
        sum += e;
        if (c == label) label_exp = e;
      }
      const double p = label_exp / sum;
      losses[s * kCnnLanes + lane] = -std::log(p < 1e-300 ? 1e-300 : p);
    }
  }
}

}  // namespace
}  // namespace internal
}  // namespace comfedsv

#endif  // COMFEDSV_MODELS_CNN_LANE_KERNEL_H_
