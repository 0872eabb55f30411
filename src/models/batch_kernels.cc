#include "models/batch_kernels.h"

#include <algorithm>
#include <climits>

#include "common/check.h"
#include "common/execution_context.h"
#include "data/dataset.h"
#include "models/batch_kernels_impl.h"
#include "models/cnn_lane_kernel.h"

namespace comfedsv {
namespace internal {
namespace {

constexpr size_t kBaselineTileCols = 10;

// Test samples per CnnLaneBatchLoss task. A constant, never derived from
// the thread count, so the task split cannot change a result; small
// enough that a batch of one or two lane blocks still spreads over a
// pool.
constexpr size_t kCnnSampleChunk = 16;

bool UseAvx2() {
#if defined(COMFEDSV_HAVE_AVX2_BATCH_KERNELS)
  static const bool use = __builtin_cpu_supports("avx2");
  return use;
#else
  return false;
#endif
}

void AffinePairBaseline(const PackedAffineBlock& pack, const double* x0,
                        const double* x1, double* z0, double* z1) {
  AffinePairImpl<kBaselineTileCols>(pack, x0, x1, z0, z1);
}

void CnnLaneLossesBaseline(const CnnLaneShape& shape, const double* packed,
                           const double* x, const int* labels, size_t count,
                           double* scratch, double* losses) {
  // A lane block is two xmm registers here, so a tile of four classes
  // holds eight of the sixteen.
  CnnLaneLossesImpl<2, 4>(shape, packed, x, labels, count, scratch, losses);
}

}  // namespace

#if defined(COMFEDSV_HAVE_AVX2_BATCH_KERNELS)
// Defined in batch_kernels_avx2.cc (compiled with -mavx2, no FMA).
void AffinePairAvx2_8(const PackedAffineBlock& pack, const double* x0,
                      const double* x1, double* z0, double* z1);
void AffinePairAvx2_12(const PackedAffineBlock& pack, const double* x0,
                       const double* x1, double* z0, double* z1);
void AffinePairAvx2_16(const PackedAffineBlock& pack, const double* x0,
                       const double* x1, double* z0, double* z1);
// Defined in cnn_lane_kernel_avx2.cc (compiled with -mavx2, no FMA).
void CnnLaneLossesAvx2(const CnnLaneShape& shape, const double* packed,
                       const double* x, const int* labels, size_t count,
                       double* scratch, double* losses);
#endif

size_t SelectTileCols(size_t cols) {
  if (!UseAvx2()) return kBaselineTileCols;
  size_t best = 16;
  size_t best_rem = cols % 16;
  for (size_t cand : {size_t{12}, size_t{8}}) {
    const size_t rem = cols % cand;
    if (rem < best_rem) {
      best = cand;
      best_rem = rem;
    }
  }
  return best;
}

std::vector<size_t> SupportedTileCols() {
  std::vector<size_t> widths = {kBaselineTileCols};
  if (UseAvx2()) {
    widths.push_back(8);
    widths.push_back(12);
    widths.push_back(16);
  }
  return widths;
}

PackedAffineBlock PackAffineBlock(const Matrix& param_rows, size_t row_begin,
                                  size_t row_count, size_t weight_offset,
                                  size_t bias_offset, size_t dim,
                                  size_t width, size_t tile_cols) {
  COMFEDSV_CHECK_LE(row_begin + row_count, param_rows.rows());
  COMFEDSV_CHECK_LE(weight_offset + dim * width, param_rows.cols());
  COMFEDSV_CHECK_LE(bias_offset + width, param_rows.cols());
  PackedAffineBlock out;
  out.dim = dim;
  out.cols = row_count * width;
  out.tile_cols = tile_cols == 0 ? SelectTileCols(out.cols) : tile_cols;
  out.num_tiles = out.cols / out.tile_cols;
  out.rem = out.cols % out.tile_cols;

  // Tile pack built straight from the parameter rows (what re-tiling a
  // Matrix::PackRowSlices staging matrix would yield; fused here to keep
  // the hot path single-copy). Per tile, each column's member row and
  // weight-column offset are hoisted, so the j loop is width-strided
  // reads from at most tile_cols member rows.
  const size_t kT = out.tile_cols;
  out.tiles.resize(out.num_tiles * dim * kT);
  std::vector<const double*> col_src(kT);
  for (size_t tile = 0; tile < out.num_tiles; ++tile) {
    for (size_t t = 0; t < kT; ++t) {
      const size_t col = tile * kT + t;
      col_src[t] = param_rows.RowPtr(row_begin + col / width) +
                   weight_offset + col % width;
    }
    double* dst = out.tiles.data() + tile * dim * kT;
    for (size_t j = 0; j < dim; ++j) {
      for (size_t t = 0; t < kT; ++t) dst[t] = col_src[t][j * width];
      dst += kT;
    }
  }
  out.rem_pack.resize(out.rem * dim);
  for (size_t r = 0; r < out.rem; ++r) {
    const size_t col = out.num_tiles * kT + r;
    const double* src = param_rows.RowPtr(row_begin + col / width) +
                        weight_offset + col % width;
    for (size_t j = 0; j < dim; ++j) {
      out.rem_pack[r * dim + j] = src[j * width];
    }
  }
  out.bias.resize(out.cols);
  for (size_t m = 0; m < row_count; ++m) {
    const double* src = param_rows.RowPtr(row_begin + m) + bias_offset;
    for (size_t u = 0; u < width; ++u) out.bias[m * width + u] = src[u];
  }
  return out;
}

void BatchedAffinePair(const PackedAffineBlock& pack, const double* x0,
                       const double* x1, double* z0, double* z1) {
#if defined(COMFEDSV_HAVE_AVX2_BATCH_KERNELS)
  switch (pack.tile_cols) {
    case 8:
      AffinePairAvx2_8(pack, x0, x1, z0, z1);
      return;
    case 12:
      AffinePairAvx2_12(pack, x0, x1, z0, z1);
      return;
    case 16:
      AffinePairAvx2_16(pack, x0, x1, z0, z1);
      return;
    default:
      break;
  }
#endif
  AffinePairBaseline(pack, x0, x1, z0, z1);
}

// Coalition-lane CNN kernel (cnn_lane_kernel.h): dispatch and the batch
// driver live here, beside UseAvx2() and the baseline instantiation, so
// cnn.cc compiles none of the kernel code. GCC makes its inlining
// choices per translation unit: with the driver in cnn.cc,
// Cnn::LossAndGradient compiled to about a third more instructions.
std::vector<CnnLaneIsa> SupportedCnnLaneIsas() {
  std::vector<CnnLaneIsa> isas = {CnnLaneIsa::kBaseline};
  if (UseAvx2()) isas.push_back(CnnLaneIsa::kAvx2);
  return isas;
}

CnnLaneLossesFn CnnLaneKernel(CnnLaneIsa isa) {
  COMFEDSV_CHECK(isa == CnnLaneIsa::kBaseline || UseAvx2());
#if defined(COMFEDSV_HAVE_AVX2_BATCH_KERNELS)
  if (isa == CnnLaneIsa::kAvx2) return CnnLaneLossesAvx2;
#endif
  return CnnLaneLossesBaseline;
}

void CnnLaneBatchLoss(CnnLaneIsa isa, const CnnLaneShape& shape,
                      double l2_penalty, const Matrix& param_rows,
                      const Dataset& data, std::vector<double>* out,
                      ExecutionContext* ctx) {
  COMFEDSV_CHECK(out != nullptr);
  const size_t num_params = shape.fc_b + static_cast<size_t>(shape.classes);
  COMFEDSV_CHECK_EQ(param_rows.cols(), num_params);
  COMFEDSV_CHECK_EQ(data.dim(),
                    static_cast<size_t>(shape.channels) * shape.side *
                        shape.side);
  const CnnLaneLossesFn kernel = CnnLaneKernel(isa);
  const size_t batch = param_rows.rows();
  out->assign(batch, 0.0);
  if (batch == 0) return;

  // Lane-interleaved pack, once per call: packed[(blk * P + p) * L + l]
  // is parameter p of member blk * L + l.
  const size_t lanes = kCnnLanes;
  const size_t num_blocks = (batch + lanes - 1) / lanes;
  const size_t block_doubles = num_params * lanes;
  std::vector<double> packed(num_blocks * block_doubles);
  for (size_t blk = 0; blk < num_blocks; ++blk) {
    double* dst = packed.data() + blk * block_doubles;
    for (size_t l = 0; l < lanes; ++l) {
      const size_t member = blk * lanes + l < batch ? blk * lanes + l
                                                    : blk * lanes;
      const double* src = param_rows.RowPtr(member);
      for (size_t p = 0; p < num_params; ++p) dst[p * lanes + l] = src[p];
    }
  }

  // Tasks are (lane block, sample chunk) pairs; each writes its
  // per-sample losses to its own slots of losses[blk][sample][lane].
  const size_t n = data.num_samples();
  const size_t num_chunks = (n + kCnnSampleChunk - 1) / kCnnSampleChunk;
  const size_t num_tasks = num_blocks * num_chunks;
  COMFEDSV_CHECK_LE(num_tasks, static_cast<size_t>(INT_MAX));
  std::vector<double> losses(num_blocks * n * lanes);
  ParallelFor(ctx, static_cast<int>(num_tasks), [&](int task) {
    const size_t blk = static_cast<size_t>(task) / num_chunks;
    const size_t s0 =
        static_cast<size_t>(task) % num_chunks * kCnnSampleChunk;
    const size_t count = std::min(n - s0, kCnnSampleChunk);
    std::vector<double> scratch(CnnLaneScratchSize(shape));
    kernel(shape, packed.data() + blk * block_doubles, data.sample(s0),
           data.labels().data() + s0, count, scratch.data(),
           losses.data() + (blk * n + s0) * lanes);
  });

  // Cnn::Loss's chain per member: ascending samples from 0.0, the mean,
  // then the ascending-order dot product of the regulariser.
  for (size_t b = 0; b < batch; ++b) {
    const double* member_losses =
        losses.data() + (b / lanes) * n * lanes + b % lanes;
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += member_losses[i * lanes];
    const double mean = data.empty() ? 0.0 : total / static_cast<double>(n);
    const double* p = param_rows.RowPtr(b);
    double dot = 0.0;
    for (size_t k = 0; k < num_params; ++k) dot += p[k] * p[k];
    (*out)[b] = mean + 0.5 * l2_penalty * dot;
  }
}

}  // namespace internal
}  // namespace comfedsv
