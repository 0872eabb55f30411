#include "shapley/utility.h"

#include <algorithm>

#include "common/check.h"
#include "linalg/matrix.h"

namespace comfedsv {
namespace {

// Coalitions per BatchLoss chunk. Capped so a chunk's stacked parameter
// matrix stays around 16M doubles even for very large models; the bound
// depends only on the model, never on thread count, so chunk boundaries
// (and therefore results and counter order) are deterministic.
size_t ChunkSize(size_t params_per_coalition) {
  constexpr size_t kTargetDoubles = size_t{16} << 20;
  constexpr size_t kMaxChunk = 256;
  if (params_per_coalition == 0) return kMaxChunk;
  return std::clamp<size_t>(kTargetDoubles / params_per_coalition, 16,
                            kMaxChunk);
}

// Column-slice width of the aggregator's chain: one slice's chain of
// |S| rows stays cache resident while it walks a whole chunk.
constexpr size_t kSliceCols = 128;

// Doubles a chunk's means must write before their slices are worth
// fanning out; smaller chunks run inline on the calling thread.
constexpr size_t kParallelWork = size_t{1} << 16;

}  // namespace

bool UtilityStats::Valid() const {
  return loss_calls >= 0 && batched_calls >= 0 && memo_hits >= 0;
}

CoalitionAggregator::CoalitionAggregator(const RoundRecord* record)
    : record_(record), dim_(record->global_before.size()) {
  COMFEDSV_CHECK(record_ != nullptr);
}

void CoalitionAggregator::Reserve(size_t max_members) {
  if (max_members <= capacity_) return;
  // The slice-major layout depends on capacity_, so the old chain is
  // dropped (freed before the larger buffer is taken) and rebuilt.
  partials_ = {};
  partials_.resize(max_members * dim_);
  capacity_ = max_members;
  depth_ = 0;
}

void CoalitionAggregator::MeanInto(const Coalition& coalition, double* out) {
  MeansInto(&coalition, 1, out, nullptr);
}

void CoalitionAggregator::MeansInto(const Coalition* coalitions, size_t n,
                                    double* out, ExecutionContext* ctx) {
  size_t max_members = 0;
  for (size_t r = 0; r < n; ++r) {
    max_members =
        std::max(max_members, static_cast<size_t>(coalitions[r].Count()));
  }
  Reserve(max_members);

  // Serial plan: each row's ascending members, and the chain row it
  // recomputes from — the end of the prefix it shares with the row
  // before it.
  members_.clear();
  keep_.clear();
  begin_.assign(1, 0);
  size_t work = 0;  // doubles written: new chain rows plus output rows
  for (size_t r = 0; r < n; ++r) {
    const size_t start = members_.size();
    coalitions[r].ForEachMember([this](int member) {
      COMFEDSV_CHECK_LT(static_cast<size_t>(member),
                        record_->local_models.size());
      COMFEDSV_CHECK_EQ(record_->local_models[member].size(), dim_);
      members_.push_back(member);
    });
    const size_t count = members_.size() - start;
    COMFEDSV_CHECK_GT(count, 0u);
    size_t keep = 0;
    while (keep < depth_ && keep < count &&
           chain_[keep] == members_[start + keep]) {
      ++keep;
    }
    chain_.assign(members_.begin() + static_cast<ptrdiff_t>(start),
                  members_.end());
    depth_ = count;
    keep_.push_back(keep);
    begin_.push_back(members_.size());
    work += (count - keep + 1) * dim_;
  }

  // Each slice walks every row over its own columns of the chain and of
  // `out`; slices share nothing writable.
  const int slices = static_cast<int>((dim_ + kSliceCols - 1) / kSliceCols);
  ParallelFor(work < kParallelWork ? nullptr : ctx, slices, [&](int s) {
    const size_t j0 = static_cast<size_t>(s) * kSliceCols;
    const size_t width = std::min(kSliceCols, dim_ - j0);
    double* chain = partials_.data() + j0 * capacity_;
    for (size_t r = 0; r < n; ++r) {
      const int* members = members_.data() + begin_[r];
      const size_t count = begin_[r + 1] - begin_[r];
      // Extend the chain: one Axpy per member beyond the shared prefix.
      for (size_t k = keep_[r]; k < count; ++k) {
        double* dst = chain + k * width;
        const double* lp = record_->local_models[members[k]].data() + j0;
        if (k == 0) {
          // 0.0 + x, not x: the sequential path Axpys into a zero
          // vector, which flips -0.0 inputs to +0.0 — reproduce that.
          for (size_t i = 0; i < width; ++i) dst[i] = 0.0 + lp[i];
        } else {
          const double* prev = dst - width;
          for (size_t i = 0; i < width; ++i) dst[i] = prev[i] + lp[i];
        }
      }
      const double inv = 1.0 / static_cast<double>(count);
      const double* sum = chain + (count - 1) * width;
      double* dst = out + r * dim_ + j0;
      for (size_t i = 0; i < width; ++i) dst[i] = sum[i] * inv;
    }
  });
}

RoundUtility::RoundUtility(const Model* model, const Dataset* test_data,
                           const RoundRecord* record, ExecutionContext* ctx,
                           UtilityStats* stats)
    : model_(model),
      test_data_(test_data),
      record_(record),
      ctx_(ctx),
      askers_{stats} {
  COMFEDSV_CHECK(model_ != nullptr);
  COMFEDSV_CHECK(test_data_ != nullptr);
  COMFEDSV_CHECK(record_ != nullptr);
}

int RoundUtility::AddAsker(UtilityStats* stats) {
  MutexLock lock(mu_);
  COMFEDSV_CHECK_LT(askers_.size(), static_cast<size_t>(kMaxAskers));
  askers_.push_back(stats);
  return static_cast<int>(askers_.size()) - 1;
}

int64_t RoundUtility::measured_loss_calls() const {
  MutexLock lock(mu_);
  return measured_loss_calls_;
}

UtilityStats* RoundUtility::StatsOf(int asker) {
  COMFEDSV_CHECK_GE(asker, 0);
  COMFEDSV_CHECK_LT(static_cast<size_t>(asker), askers_.size());
  return askers_[asker];
}

bool RoundUtility::Charge(Entry* entry, int asker) {
  UtilityStats* stats = StatsOf(asker);
  const uint32_t bit = uint32_t{1} << asker;
  const bool first = (entry->askers & bit) == 0;
  entry->askers |= bit;
  if (stats != nullptr) ++(first ? stats->loss_calls : stats->memo_hits);
  return first;
}

double RoundUtility::Insert(const Coalition& coalition, double value,
                            int asker) {
  // A lost fill race (another thread cached the coalition first) keeps
  // the cached value — the same bits — and charges the read like any
  // other: every read lands in exactly one of the asker's counters, so
  // loss_calls + memo_hits equals its reads however the race interleaves.
  auto [it, inserted] = cache_.try_emplace(coalition, Entry{value, 0});
  if (inserted) ++measured_loss_calls_;
  Charge(&it->second, asker);
  return it->second.value;
}

double RoundUtility::Utility(const Coalition& coalition, int asker) {
  if (coalition.IsEmpty()) return 0.0;
  {
    MutexLock lock(mu_);
    auto it = cache_.find(coalition);
    if (it != cache_.end()) {
      Charge(&it->second, asker);
      return it->second.value;
    }
  }

  // Average the coalition members' local models. Computed outside the
  // lock: the test-set loss below dominates every caller's runtime.
  Vector aggregate(record_->global_before.size());
  int count = 0;
  coalition.ForEachMember([this, &aggregate, &count](int k) {
    COMFEDSV_CHECK_LT(static_cast<size_t>(k), record_->local_models.size());
    aggregate.Axpy(1.0, record_->local_models[k]);
    ++count;
  });
  aggregate.Scale(1.0 / static_cast<double>(count));

  const double loss = model_->Loss(aggregate, *test_data_);
  MutexLock lock(mu_);
  return Insert(coalition, record_->test_loss_before - loss, asker);
}

void RoundUtility::EvaluateBatch(const std::vector<Coalition>& coalitions,
                                 int asker) {
  const size_t params = record_->global_before.size();
  const size_t chunk = ChunkSize(params);
  // Split the batch against the cache: a coalition another asker already
  // cached costs no evaluation here but is still this asker's first
  // read; the rest are measured below.
  std::vector<Coalition> pending;
  {
    MutexLock lock(mu_);
    UtilityStats* stats = StatsOf(asker);
    int64_t first_reads = 0;
    for (const Coalition& c : coalitions) {
      if (c.IsEmpty()) continue;
      auto it = cache_.find(c);
      if (it == cache_.end()) {
        pending.push_back(c);
      } else if (Charge(&it->second, asker)) {
        ++first_reads;
      }
    }
    // Member-list order makes consecutive coalitions share long
    // ascending prefixes, so each mean extends the chain by a few Axpys.
    // The order changes no value (see the header), and a repeat within
    // the batch is a memo hit whichever submission it was.
    std::sort(pending.begin(), pending.end(), Coalition::MemberListLess);
    const auto repeats = std::unique(pending.begin(), pending.end());
    if (stats != nullptr) {
      stats->memo_hits += pending.end() - repeats;
      // The passes this asker alone would have run over its first reads.
      first_reads += repeats - pending.begin();
      stats->batched_calls +=
          (first_reads + static_cast<int64_t>(chunk) - 1) /
          static_cast<int64_t>(chunk);
    }
    pending.erase(repeats, pending.end());
  }
  if (pending.empty()) return;

  size_t max_members = 0;
  for (const Coalition& c : pending) {
    max_members = std::max(max_members, static_cast<size_t>(c.Count()));
  }
  CoalitionAggregator aggregator(record_);
  aggregator.Reserve(max_members);
  Matrix stacked;
  std::vector<double> losses;
  for (size_t c0 = 0; c0 < pending.size(); c0 += chunk) {
    const size_t n = std::min(c0 + chunk, pending.size()) - c0;
    if (stacked.rows() != n) stacked = Matrix(n, params);
    // Means fan out over column slices, the loss pass over fixed-size
    // sub-blocks inside BatchLoss.
    aggregator.MeansInto(&pending[c0], n, stacked.RowPtr(0), ctx_);
    model_->BatchLoss(stacked, *test_data_, &losses, ctx_);

    MutexLock lock(mu_);
    for (size_t r = 0; r < n; ++r) {
      Insert(pending[c0 + r], record_->test_loss_before - losses[r], asker);
    }
  }
}

}  // namespace comfedsv
