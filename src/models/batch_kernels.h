// Internal register-tiled kernels behind the BatchLoss overrides.
//
// Both LogisticRegression and Mlp (layer 0) need the same primitive: for
// a block of stacked parameter rows, compute the affine outputs
//
//   z[s][col] = bias[col] + sum_j x_s[j] * W_col[j],   col = (member, unit)
//
// for every test sample s, where the per-member weight matrices share one
// input x_s. The kernels here compute that with all members of a block in
// one pass over the features: columns are packed tile-sequentially into
// register-width tiles (the Matrix::PackRowSlices layout, re-tiled and
// fused into one copy), and two samples are processed per pass, so each
// tile's accumulators live in registers across the whole feature loop
// and each packed cache line is reused by both samples.
//
// The tile pass is compiled per ISA (a baseline TU and, on x86-64 with
// gcc/clang, an -mavx2 TU with a wider tile) and dispatched once at
// runtime. No variant enables FMA — fusing a*b+c would change rounding —
// so every ISA computes the same doubles; only the tile width (a pure
// layout choice) differs.
//
// Per-ISA linkage rule: a kernel template instantiated with the same
// arguments in more than one of these TUs must have internal linkage in
// each (an unnamed namespace, as in cnn_lane_kernel.h), and the TUs must
// share no other inline function the compiler may emit out of line.
// Otherwise both objects define the same weak (COMDAT) symbol, the
// linker keeps one copy for both entry points, and one ISA silently runs
// the other's code — SSE2 code on the AVX2 path, or AVX2 code on a CPU
// without it. The lint CI job checks that no *_avx2.cc object shares a
// weak code symbol with the baseline objects.
//
// Bit-identity contract (see model.h): every z[s][col] accumulates its
// terms in ascending feature order and skips exact-zero features, exactly
// like the scalar per-member loops in logistic.cc / mlp.cc — so tiling,
// ISA, batch size, and sample pairing never change a single output bit.
#ifndef COMFEDSV_MODELS_BATCH_KERNELS_H_
#define COMFEDSV_MODELS_BATCH_KERNELS_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace comfedsv {
namespace internal {

/// Tile width (output columns per register tile) chosen for a block of
/// `cols` output columns: 10 for the baseline kernel (2 samples x 10
/// double accumulators fit the 16 SSE registers); with the AVX2 tile
/// pass compiled in and supported by the CPU, the width from {16, 12, 8}
/// (ymm-multiples) that leaves the fewest slow remainder columns. A pure
/// layout choice — never affects the computed doubles.
size_t SelectTileCols(size_t cols);

/// Every tile width the running process can execute: the baseline width
/// plus any ISA-variant widths active on this CPU. Exposed so tests can
/// exercise each compiled kernel regardless of which one SelectTileCols
/// would pick.
std::vector<size_t> SupportedTileCols();

/// One block's packed affine columns: tile-sequential weight pack,
/// per-column remainder pack, and the bias row.
struct PackedAffineBlock {
  size_t dim = 0;        ///< features per column (the shared j loop)
  size_t cols = 0;       ///< total output columns (members * width)
  size_t tile_cols = 0;  ///< tile width the pack was built for
  size_t num_tiles = 0;  ///< cols / tile_cols
  size_t rem = 0;        ///< cols % tile_cols
  /// Tile-sequential pack: tiles[(tile * dim + j) * tile_cols + t] is
  /// feature j of column tile*tile_cols + t.
  std::vector<double> tiles;
  /// Remainder columns, one dim-length run per column.
  std::vector<double> rem_pack;
  /// bias[col].
  std::vector<double> bias;
};

/// Packs rows [row_begin, row_begin+row_count) of `param_rows` for the
/// batched affine kernel. Each row holds a member's flat parameters with
/// a (dim x width) row-major weight block at `weight_offset` and a
/// width-length bias at `bias_offset`. Column order is member-major:
/// col = member * width + unit. `tile_cols` must be 0 (auto:
/// SelectTileCols) or one of SupportedTileCols().
PackedAffineBlock PackAffineBlock(const Matrix& param_rows, size_t row_begin,
                                  size_t row_count, size_t weight_offset,
                                  size_t bias_offset, size_t dim,
                                  size_t width, size_t tile_cols = 0);

/// Computes z0/z1 (length pack.cols) for the sample pair x0/x1. `x1` may
/// be null (odd tail), in which case only z0 is written.
void BatchedAffinePair(const PackedAffineBlock& pack, const double* x0,
                       const double* x1, double* z0, double* z1);

/// Members per sub-block of a batched loss: the packed weights of 8
/// members stay L2-resident up to a few thousand parameters per member,
/// and sub-blocks are the unit of ExecutionContext parallelism. Fixed
/// (never derived from thread count) so results are thread-invariant.
inline constexpr size_t kCoalitionBlock = 8;

}  // namespace internal
}  // namespace comfedsv

#endif  // COMFEDSV_MODELS_BATCH_KERNELS_H_
