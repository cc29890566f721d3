#include "embed/posting_list_store.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace gred::embed {

namespace {

/// Per-thread accumulators, one double per row. All zero between
/// queries: TopK zeroes every slot it reads back, so the buffer is only
/// ever grown, never cleared.
std::vector<double>& RowScratch(std::size_t rows) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < rows) scratch.resize(rows, 0.0);
  return scratch;
}

}  // namespace

std::size_t PostingListStore::Add(Vector v) {
  if (v.size() > kMaxDimension) {
    std::fprintf(stderr, "PostingListStore: dimension %zu exceeds %zu\n",
                 v.size(), kMaxDimension);
    std::abort();
  }
  L2Normalize(&v);
  const std::size_t index = dims_.size();
  assert(index < std::numeric_limits<std::uint32_t>::max());
  for (std::size_t d = 0; d < v.size(); ++d) {
    if (v[d] == 0.0f) continue;
    entry_dims_.push_back(static_cast<std::uint16_t>(d));
    entry_values_.push_back(v[d]);
  }
  assert(entry_dims_.size() < std::numeric_limits<std::uint32_t>::max());
  row_begin_.push_back(static_cast<std::uint32_t>(entry_dims_.size()));
  dims_.push_back(static_cast<std::uint32_t>(v.size()));
  heavy_norms_.push_back(0.0);
  IndexRow(static_cast<std::uint32_t>(index));
  return index;
}

void PostingListStore::IndexRow(std::uint32_t row) {
  double heavy = 0.0;
  for (std::uint32_t e = row_begin_[row]; e < row_begin_[row + 1]; ++e) {
    const float value = entry_values_[e];
    if (Light(entry_dims_[e])) {
      lists_[entry_dims_[e]].push_back(Posting{row, value});
    } else {
      heavy += static_cast<double>(value) * value;
    }
  }
  heavy_norms_[row] = std::sqrt(heavy);
}

void PostingListStore::Seal() {
  const std::size_t n = size();
  const std::size_t dims =
      n == 0 ? 0 : *std::max_element(dims_.begin(), dims_.end());
  std::vector<std::size_t> counts(dims, 0);
  for (std::uint16_t d : entry_dims_) ++counts[d];
  // Light lists are sized exactly from the CSR rows; heavy postings are
  // never materialized.
  light_.assign(dims, false);
  lists_ = std::vector<std::vector<Posting>>(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    light_[d] = 2 * counts[d] < n;
    if (light_[d]) lists_[d].reserve(counts[d]);
  }
  for (std::size_t row = 0; row < n; ++row) {
    IndexRow(static_cast<std::uint32_t>(row));
  }
}

double PostingListStore::Rescore(std::size_t row, const Vector& q) const {
  const std::size_t dim = q.size();
  if (dims_[row] != dim) return 0.0;
  // DotBlocked's lane map: blocks of four, then the tail into lane 0.
  const std::size_t blocked = dim - dim % 4;
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::uint32_t e = row_begin_[row]; e < row_begin_[row + 1]; ++e) {
    const std::size_t d = entry_dims_[e];
    lanes[d < blocked ? d % 4 : 0] +=
        static_cast<double>(entry_values_[e]) * q[d];
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

std::vector<Hit> PostingListStore::TopK(const Vector& query,
                                        std::size_t k) const {
  const std::size_t n = size();
  TopKSelector best(std::min(k, n));
  if (k == 0 || n == 0) return best.Take();
  Vector q = query;
  L2Normalize(&q);
  const std::size_t dim = q.size();
  double* const acc = RowScratch(n).data();

  // Light walk: each row's partial score over the light dimensions.
  double q_heavy = 0.0;
  for (std::size_t d = 0; d < dim; ++d) {
    if (q[d] == 0.0f) continue;
    const double qd = q[d];
    if (!Light(d)) {
      q_heavy += qd * qd;
      continue;
    }
    for (const Posting& p : lists_[d]) {
      acc[p.row] += static_cast<double>(p.value) * qd;
    }
  }
  q_heavy = std::sqrt(q_heavy);

  // Bounds, and the k best rows by bound rescored to seed the k-th
  // score. A row of another dimension scores exactly 0, its bound too.
  TopKSelector by_bound(std::min(k, n));
  for (std::size_t row = 0; row < n; ++row) {
    acc[row] = dims_[row] == dim
                   ? acc[row] + q_heavy * heavy_norms_[row] + kBoundSlack
                   : 0.0;
    by_bound.Offer(row, acc[row]);
  }
  for (const Hit& seed : by_bound.Take()) {
    best.Offer(seed.index, Rescore(seed.index, q));
    acc[seed.index] = -std::numeric_limits<double>::infinity();
  }

  // Every other row that can still reach the k-th score, best bound
  // first; the scratch is zeroed on the way.
  const double theta = best.Worst().score;
  std::vector<Hit> candidates;
  for (std::size_t row = 0; row < n; ++row) {
    if (acc[row] >= theta) candidates.push_back(Hit{row, acc[row]});
    acc[row] = 0.0;
  }
  std::sort(candidates.begin(), candidates.end(), HitBetter);
  for (const Hit& candidate : candidates) {
    if (candidate.score < best.Worst().score) break;
    best.Offer(candidate.index, Rescore(candidate.index, q));
  }
  return best.Take();
}

}  // namespace gred::embed
