#include "embed/posting_list_store.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/thread_pool.h"

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

/// Per-thread dense copy of the normalized query, read by Rescore. All
/// zero between queries: TopK writes and then clears only the query's
/// own dims, so a query costs O(nnz) here, never O(dimension).
std::vector<float>& QueryScratch(std::size_t dimension) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < dimension) scratch.resize(dimension, 0.0f);
  return scratch;
}

}  // namespace

std::size_t PostingListStore::Add(const SparseRow& row) {
  if (row.dimension > kMaxDimension) {
    std::fprintf(stderr, "PostingListStore: dimension %u exceeds %zu\n",
                 row.dimension, kMaxDimension);
    std::abort();
  }
  CheckSparseRow(row);
  const std::size_t index = dims_.size();
  assert(index < std::numeric_limits<std::uint32_t>::max());
  // Renormalized over the non-zeros: the same bits as L2Normalize of the
  // dense vector (embedder.h), so a stored row never depends on whether
  // its producer normalized it already.
  const float inv = InverseNorm(row.values);
  for (std::size_t i = 0; i < row.nnz(); ++i) {
    const float value = row.values[i] * inv;
    if (value == 0.0f) continue;
    entry_dims_.push_back(row.dims[i]);
    entry_values_.push_back(value);
  }
  assert(entry_dims_.size() < std::numeric_limits<std::uint32_t>::max());
  row_begin_.push_back(static_cast<std::uint32_t>(entry_dims_.size()));
  dims_.push_back(row.dimension);
  const auto r = static_cast<std::uint32_t>(index);
  heavy_norms_.push_back(IndexRow(r, [&](std::uint32_t e) {
    lists_[entry_dims_[e]].push_back(Posting{r, entry_values_[e]});
  }));
  return index;
}

template <typename OnLight>
double PostingListStore::IndexRow(std::uint32_t row, OnLight on_light) const {
  double heavy = 0.0;
  for (std::uint32_t e = row_begin_[row]; e < row_begin_[row + 1]; ++e) {
    if (Light(entry_dims_[e])) {
      on_light(e);
    } else {
      const double value = entry_values_[e];
      heavy += value * value;
    }
  }
  return std::sqrt(heavy);
}

void PostingListStore::Seal() {
  const std::size_t n = size();
  const std::size_t dims =
      n == 0 ? 0 : *std::max_element(dims_.begin(), dims_.end());
  // Each entry's slot in its dimension's list: numbering the entries in
  // CSR order keeps every list in ascending row order, whichever thread
  // later writes the entry.
  std::vector<std::uint32_t> counts(dims, 0);
  std::vector<std::uint32_t> slots(entry_dims_.size());
  for (std::size_t e = 0; e < entry_dims_.size(); ++e) {
    slots[e] = counts[entry_dims_[e]]++;
  }
  // Light lists are sized exactly from the counts; heavy postings are
  // never materialized.
  light_.assign(dims, false);
  lists_ = std::vector<std::vector<Posting>>(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    light_[d] = 2 * std::size_t{counts[d]} < n;
    if (light_[d]) lists_[d].resize(counts[d]);
  }
  // Rows write disjoint slots and their own heavy norms, so they index
  // in parallel.
  ParallelFor(n, [&](std::size_t index) {
    const auto row = static_cast<std::uint32_t>(index);
    heavy_norms_[row] = IndexRow(row, [&](std::uint32_t e) {
      lists_[entry_dims_[e]][slots[e]] = Posting{row, entry_values_[e]};
    });
  });
}

double PostingListStore::Rescore(std::size_t row, const float* q,
                                 std::size_t dim) const {
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

std::vector<Hit> PostingListStore::TopK(const SparseRow& query,
                                        std::size_t k) const {
  const std::size_t n = size();
  TopKSelector best(std::min(k, n));
  if (k == 0 || n == 0) return best.Take();
  CheckSparseRow(query);
  const std::size_t dim = query.dimension;
  double* const acc = RowScratch(n).data();
  // Rows are at most kMaxDimension wide, so a wider query rescores none.
  float* const q = QueryScratch(std::min(dim, kMaxDimension)).data();

  // Light walk over the normalized query's non-zeros, ascending: each
  // row's partial score over the light dimensions. The query is written
  // into the dense scratch for Rescore on the way.
  const float inv = InverseNorm(query.values);
  double q_heavy = 0.0;
  for (std::size_t i = 0; i < query.nnz(); ++i) {
    const float value = query.values[i] * inv;
    if (value == 0.0f) continue;
    const std::size_t d = query.dims[i];
    q[d] = value;
    const double qd = value;
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
    best.Offer(seed.index, Rescore(seed.index, q, dim));
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
    best.Offer(candidate.index, Rescore(candidate.index, q, dim));
  }
  for (std::uint16_t d : query.dims) q[d] = 0.0f;
  return best.Take();
}

}  // namespace gred::embed
