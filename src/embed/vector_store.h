#ifndef GREDVIS_EMBED_VECTOR_STORE_H_
#define GREDVIS_EMBED_VECTOR_STORE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "embed/flat_vectors.h"
#include "embed/kernel.h"

namespace gred::embed {

/// A dense exact top-K cosine-similarity index over embedding vectors.
///
/// GRED's "embedding vector library" (the NLQs and DVQs of the training
/// split, retrieved by cosine similarity at generation/retune time) is
/// served by RetrievalIndex, whose default exact backend is the sparse
/// PostingListStore. This dense scan is the oracle that backend is
/// tested against bit for bit. Vectors are L2-normalized on insert so
/// similarity is a dot product.
///
/// Storage is a flat SoA buffer (FlatVectors) scanned with the
/// dispatching SIMD kernel; top-k selection is a bounded heap, so a
/// query allocates O(k) rather than O(n). A query whose dimension
/// differs from a stored vector's scores 0 against it (the
/// CosineSimilarity contract) instead of being dotted against the
/// vector's prefix.
class VectorStore {
 public:
  using Hit = embed::Hit;

  /// Adds a vector; returns its insertion index.
  std::size_t Add(Vector v);

  /// Exact top-`k` by cosine similarity, highest first. Ties break by
  /// lower insertion index (deterministic).
  std::vector<Hit> TopK(const Vector& query, std::size_t k) const;

  std::size_t size() const { return rows_.size(); }

  /// Copy of the stored (normalized) vector at `index`.
  Vector at(std::size_t index) const { return rows_.CopyRow(index); }

  /// The underlying SoA rows (IvfIndex and benchmarks read them).
  const FlatVectors& rows() const { return rows_; }

 private:
  FlatVectors rows_;
};

/// Shortlist width for IVF's int8 list scan: `k` widened by
/// `factor` plus `slack` fixed extra candidates, clamped to the library
/// size. The slack floor keeps small-k searches honest (k=1 with only
/// 4 candidates would make re-rank exactness a coin flip); the factor
/// keeps large-k searches proportionally covered.
std::size_t ShortlistSize(std::size_t k, std::size_t n, std::size_t factor,
                          std::size_t slack);

}  // namespace gred::embed

#endif  // GREDVIS_EMBED_VECTOR_STORE_H_
