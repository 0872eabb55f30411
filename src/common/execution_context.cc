#include "common/execution_context.h"

namespace comfedsv {

void ParallelFor(ExecutionContext* ctx, int n,
                 const std::function<void(int)>& fn) {
  if (ctx != nullptr) {
    ctx->ParallelFor(n, fn);
    return;
  }
  for (int i = 0; i < n; ++i) fn(i);
}

}  // namespace comfedsv
