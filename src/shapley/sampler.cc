#include "shapley/sampler.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace comfedsv {

const char* SamplerKindName(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kUniformIid:
      return "uniform";
    case SamplerKind::kAntithetic:
      return "antithetic";
    case SamplerKind::kStratified:
      return "stratified";
    case SamplerKind::kTruncated:
      return "truncated";
  }
  return "?";
}

int RoundBudgetForSampler(const SamplerConfig& config, int budget) {
  // Floor before pairing: a 0/negative budget (a degenerate config) must
  // still produce at least one draw, or the estimators' positive-budget
  // guard aborts downstream.
  budget = std::max(budget, 1);
  if (config.kind == SamplerKind::kAntithetic && (budget % 2) != 0) {
    return budget + 1;
  }
  return budget;
}

Status ValidateSamplerConfig(const SamplerConfig& config) {
  if (config.kind == SamplerKind::kTruncated &&
      !(std::isfinite(config.truncation_tolerance) &&
        config.truncation_tolerance >= 0.0)) {
    std::ostringstream msg;
    msg << "truncation_tolerance must be finite and >= 0, got "
        << config.truncation_tolerance;
    return Status::InvalidArgument(msg.str());
  }
  return Status::Ok();
}

std::vector<std::vector<int>> DrawOrderings(const SamplerConfig& config,
                                            const std::vector<int>& players,
                                            int count, Rng* rng,
                                            bool reset_between_draws) {
  COMFEDSV_CHECK(rng != nullptr);
  COMFEDSV_CHECK_GT(count, 0);
  COMFEDSV_CHECK(!players.empty());
  const size_t m = players.size();

  std::vector<std::vector<int>> orders;
  orders.reserve(count);

  // One base draw == one Rng::Shuffle, in both legacy conventions, so
  // the uniform mode reproduces the pre-sampler sequences exactly.
  std::vector<int> working(players);
  auto draw_base = [&]() -> const std::vector<int>& {
    if (reset_between_draws) working = players;
    rng->Shuffle(&working);
    return working;
  };

  const size_t target = static_cast<size_t>(count);
  switch (config.kind) {
    case SamplerKind::kUniformIid:
    case SamplerKind::kTruncated:
      // Truncation changes how orderings are *walked*, not how they are
      // drawn: the orderings stay uniform IID.
      while (orders.size() < target) orders.push_back(draw_base());
      break;

    case SamplerKind::kAntithetic:
      while (orders.size() < target) {
        const std::vector<int>& base = draw_base();
        orders.push_back(base);
        if (orders.size() < target) {
          orders.emplace_back(base.rbegin(), base.rend());
        }
      }
      break;

    case SamplerKind::kStratified:
      while (orders.size() < target) {
        // Copy: `working` must stay untouched for the next base draw in
        // the chained (reset_between_draws = false) convention.
        const std::vector<int> base = draw_base();
        for (size_t r = 0; r < m && orders.size() < target; ++r) {
          std::vector<int> rotation(m);
          for (size_t i = 0; i < m; ++i) {
            rotation[i] = base[(r + i) % m];
          }
          orders.push_back(std::move(rotation));
        }
      }
      break;
  }
  return orders;
}

}  // namespace comfedsv
