// Model interface.
//
// Every model exposes its parameters as one flat Vector so the federated
// substrate can average, perturb, and evaluate parameters without knowing
// the architecture. Gradients are analytic; tests validate them against
// finite differences (models/gradient_check.h).
//
// BatchLoss contract: given B parameter vectors stacked as the rows of a
// Matrix, BatchLoss fills out[i] with exactly the double Loss(row i,
// data) would return — bit-identical, not merely close. Overrides may
// reorder *which* (sample, batch-member) pair is visited when, and may
// fan out over an ExecutionContext, but each member's loss must keep the
// sequential accumulation chain of Loss (samples in ascending order, one
// chain per member), so the output never depends on batch composition or
// thread count. This is what lets the coalition-utility engine batch
// thousands of coalition evaluations per pass over the test set while
// valuation outputs stay reproducible (tests/models_batch_loss_test.cc
// enforces the equivalence).
#ifndef COMFEDSV_MODELS_MODEL_H_
#define COMFEDSV_MODELS_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace comfedsv {

/// A differentiable classifier over flat parameter vectors.
class Model {
 public:
  virtual ~Model() = default;

  /// Length of the flat parameter vector.
  virtual size_t num_params() const = 0;

  /// Input dimension this model expects.
  virtual size_t input_dim() const = 0;

  /// Number of classes.
  virtual int num_classes() const = 0;

  /// Short architecture name for logs and reports.
  virtual std::string name() const = 0;

  /// Mean loss over `data` (plus any built-in L2 regularizer).
  virtual double Loss(const Vector& params, const Dataset& data) const = 0;

  /// Losses of many parameter vectors at once: row i of `param_rows` is
  /// one flat parameter vector, and `out` (resized to param_rows.rows())
  /// receives out[i] == Loss(row i, data) bit for bit (see the contract
  /// at the top of this header). The default implementation loops Loss,
  /// parallelized over rows via `ctx`; LogisticRegression and Mlp
  /// override it with blocked kernels that amortize the test-set
  /// traversal across the whole batch, and Cnn with a kernel that runs
  /// blocks of members in SIMD lanes over each shared test image.
  virtual void BatchLoss(const Matrix& param_rows, const Dataset& data,
                         std::vector<double>* out,
                         ExecutionContext* ctx = nullptr) const;

  /// Mean loss and its gradient; `grad` is resized and overwritten.
  virtual double LossAndGradient(const Vector& params, const Dataset& data,
                                 Vector* grad) const = 0;

  /// Predicted class for a single feature row `x` of length input_dim().
  virtual int Predict(const Vector& params, const double* x) const = 0;

  /// Fraction of `data` classified correctly.
  double Accuracy(const Vector& params, const Dataset& data) const;

  /// Fills `params` with a small random initialization (N(0, scale^2)
  /// by default). Virtual so fixture models can substitute a
  /// transcendental-free init: the default draws through Box–Muller
  /// (libm log/sin/cos), whose last-ulp behavior is the one toolchain-
  /// dependent element of an otherwise bit-stable pipeline (see
  /// tests/scenario_golden_test.cc).
  virtual void InitializeParams(Vector* params, Rng* rng,
                                double scale = 0.05) const;

  /// Mixes everything that determines this model's loss surface into a
  /// checkpoint-compatibility fingerprint (common/fingerprint.h): the
  /// base contribution is (name, num_params, input_dim, num_classes);
  /// concrete models must additionally mix hyperparameters that change
  /// losses without changing those shapes (e.g. L2 penalties), so a
  /// checkpointed run can never silently resume under a different
  /// model.
  virtual void MixFingerprint(uint64_t* hash) const;
};

}  // namespace comfedsv

#endif  // COMFEDSV_MODELS_MODEL_H_
