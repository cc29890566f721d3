#include "embed/vector_store.h"

#include <algorithm>

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

}  // namespace gred::embed
