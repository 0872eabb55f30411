// AVX2 instantiation of the coalition-lane CNN loss kernel. Compiled with
// -mavx2 only (never -mfma: fusing a*b+c would change rounding and break
// the bit-identity contract), and only linked on x86-64 gcc/clang builds
// — see src/models/CMakeLists.txt. A lane vector is one ymm register, so
// eight class accumulators fit the register file; the arithmetic is
// identical to the baseline instantiation in batch_kernels.cc.
#include "models/cnn_lane_kernel.h"

namespace comfedsv {
namespace internal {

void CnnLaneLossesAvx2(const CnnLaneShape& shape, const double* packed,
                       const double* x, const int* labels, size_t count,
                       double* scratch, double* losses) {
  CnnLaneLossesImpl<4, 8>(shape, packed, x, labels, count, scratch, losses);
}

}  // namespace internal
}  // namespace comfedsv
