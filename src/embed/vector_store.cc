#include "embed/vector_store.h"

#include <algorithm>
#include <cassert>

namespace gred::embed {

std::size_t ShortlistSize(std::size_t k, std::size_t n, std::size_t factor,
                          std::size_t slack) {
  const std::size_t widened = std::max(k * factor, k + slack);
  return std::min(std::max(widened, k), n);
}

std::size_t VectorStore::Add(Vector v) {
  L2Normalize(&v);
  return rows_.Append(v);
}

std::vector<VectorStore::Hit> VectorStore::TopK(const Vector& query,
                                                std::size_t k) const {
  Vector q = query;
  L2Normalize(&q);
  TopKSelector selector(std::min(k, rows_.size()));
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const double score = rows_.row_size(i) == q.size() && !q.empty()
                             ? Dot(rows_.row(i), q.data(), q.size())
                             : 0.0;
    selector.Offer(i, score);
  }
  return selector.Take();
}

void VectorStore::EnsureQuantized() {
  codes_.AppendRows(rows_, codes_.size());
}

std::vector<VectorStore::Hit> VectorStore::TopKQuantized(
    const Vector& query, std::size_t k, std::size_t shortlist) const {
  assert(quantized() && "EnsureQuantized() must cover every row");
  Vector q = query;
  L2Normalize(&q);
  const QuantizedVectors::Query qq = QuantizedVectors::QuantizeQuery(q);
  // Approximate pass: 1 byte per dimension, exact integer kernel.
  TopKSelector approx(std::min(std::max(shortlist, k), rows_.size()));
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    approx.Offer(i, codes_.ApproxDot(i, qq));
  }
  // Exact re-rank of the shortlist with the float kernel: the returned
  // scores carry no quantization error, so whenever the true top-k all
  // made the shortlist the result is bit-identical to TopK.
  TopKSelector exact(std::min(k, rows_.size()));
  for (const Hit& candidate : approx.Take()) {
    const std::size_t i = candidate.index;
    const double score = rows_.row_size(i) == q.size() && !q.empty()
                             ? Dot(rows_.row(i), q.data(), q.size())
                             : 0.0;
    exact.Offer(i, score);
  }
  return exact.Take();
}

}  // namespace gred::embed
