#include "embed/posting_list_store.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace gred::embed {

namespace {

/// Per-thread accumulators, four lanes of one double per row. All zero
/// between queries: TopK zeroes every slot it reads back, so the buffer
/// is only ever grown, never cleared.
std::vector<double>& LaneScratch(std::size_t rows) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < 4 * rows) scratch.resize(4 * rows, 0.0);
  return scratch;
}

}  // namespace

std::size_t PostingListStore::Add(Vector v) {
  L2Normalize(&v);
  const std::size_t index = dims_.size();
  assert(index < std::numeric_limits<std::uint32_t>::max());
  const auto row = static_cast<std::uint32_t>(index);
  dims_.push_back(static_cast<std::uint32_t>(v.size()));
  if (lists_.size() < v.size()) lists_.resize(v.size());
  for (std::size_t d = 0; d < v.size(); ++d) {
    if (v[d] != 0.0f) lists_[d].push_back(Posting{row, v[d]});
  }
  return index;
}

std::vector<Hit> PostingListStore::TopK(const Vector& query,
                                        std::size_t k) const {
  const std::size_t n = size();
  TopKSelector selector(std::min(k, n));
  if (k == 0 || n == 0) return selector.Take();
  Vector q = query;
  L2Normalize(&q);
  const std::size_t dim = q.size();
  std::vector<double>& scratch = LaneScratch(n);
  double* const lanes[4] = {scratch.data(), scratch.data() + n,
                            scratch.data() + 2 * n, scratch.data() + 3 * n};
  // DotBlocked's lane map: blocks of four, then the tail into lane 0.
  const std::size_t blocked = dim - dim % 4;
  const std::size_t walked = std::min(dim, lists_.size());
  for (std::size_t d = 0; d < walked; ++d) {
    if (q[d] == 0.0f) continue;
    const double qd = q[d];
    double* const lane = lanes[d < blocked ? d % 4 : 0];
    for (const Posting& p : lists_[d]) {
      lane[p.row] += static_cast<double>(p.value) * qd;
    }
  }
  // Rows of another dimension may have picked up partial sums above;
  // they score 0 like the dense scan, and their slots are zeroed too.
  for (std::size_t i = 0; i < n; ++i) {
    const double score = (lanes[0][i] + lanes[1][i]) +
                         (lanes[2][i] + lanes[3][i]);
    lanes[0][i] = lanes[1][i] = lanes[2][i] = lanes[3][i] = 0.0;
    selector.Offer(i, dims_[i] == dim ? score : 0.0);
  }
  return selector.Take();
}

}  // namespace gred::embed
