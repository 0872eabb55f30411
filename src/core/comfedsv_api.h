// Umbrella header: include this to get the full public API of the
// comfedsv library.
//
// Quick tour (see README.md for a worked example):
//   * data/        — Dataset, synthetic & simulated-image generators,
//                    partitioners, noise injectors
//   * models/      — LogisticRegression, Mlp, Cnn behind the Model
//                    interface
//   * fl/          — FedAvgTrainer + client-selection strategies
//   * shapley/     — coalition utilities, exact & Monte-Carlo Shapley,
//                    the FedSV baseline
//   * completion/  — low-rank matrix completion (ALS / CCD++)
//   * io/          — versioned binary serialization & checkpoint files
//   * core/        — ComFedSvEvaluator, GroundTruthEvaluator, the
//                    one-call RunValuation pipeline (plain and
//                    checkpointed), and the StreamingValuationEngine
//   * metrics/     — Spearman, Jaccard, ECDF, relative difference
#ifndef COMFEDSV_CORE_COMFEDSV_API_H_
#define COMFEDSV_CORE_COMFEDSV_API_H_

#include "common/combinatorics.h"
#include "common/execution_context.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "completion/solver.h"
#include "core/checkpointing.h"
#include "core/comfedsv_values.h"
#include "core/evaluator.h"
#include "core/pipeline.h"
#include "core/recorders.h"
#include "core/streaming.h"
#include "data/image_sim.h"
#include "data/noise.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/adversary.h"
#include "fl/fedavg.h"
#include "io/checkpoint.h"
#include "metrics/fairness.h"
#include "io/serialize.h"
#include "linalg/eps_rank.h"
#include "linalg/svd.h"
#include "metrics/metrics.h"
#include "models/cnn.h"
#include "models/logistic.h"
#include "models/mlp.h"
#include "shapley/fedsv.h"
#include "shapley/sampler.h"
#include "shapley/shapley.h"

#endif  // COMFEDSV_CORE_COMFEDSV_API_H_
