#ifndef GREDVIS_EMBED_POSTING_LIST_STORE_H_
#define GREDVIS_EMBED_POSTING_LIST_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "embed/embedder.h"
#include "embed/kernel.h"

namespace gred::embed {

/// An exact top-K cosine-similarity index that stores only non-zeros:
/// one posting list of (row, value) pairs per dimension.
///
/// The hash embedders emit sparse vectors (~100 non-zeros of 512), so a
/// query that walks only its own non-zero dimensions reads ~8% of what a
/// dense row scan reads. Rows are appended in insertion order, so every
/// list stays sorted by row and an Add after a query is just more
/// appends.
///
/// Answers are bit-identical to VectorStore::TopK — same indexes, same
/// order, same score bits — by construction. A query accumulates
/// term-at-a-time into four per-row double accumulators laid out as
/// DotBlocked's DAG: dimension d of an n-dimensional query feeds lane
/// d % 4, except the n % 4 tail dimensions, which fold into lane 0; each
/// lane adds its dimensions in ascending order; the score is
/// (l0+l1)+(l2+l3). Every product DotBlocked would add but this walk
/// skips has a zero factor, so it is ±0, and adding ±0 to a double that
/// started at +0 never changes it. The float->double products are exact,
/// so fused multiply-add and multiply-then-add round the same. The
/// identity holds for finite vectors (L2Normalize keeps finite input
/// finite); a NaN or Inf entry would poison the dense scan's zero
/// products and has no equivalent here.
///
/// A query whose dimension differs from a row's scores exactly 0 against
/// it (the CosineSimilarity contract), and ties break by lower insertion
/// index. TopK is const and thread-safe against other TopK calls; its
/// accumulators are reused per-thread scratch.
class PostingListStore {
 public:
  /// Adds a vector (L2-normalized); returns its insertion index.
  std::size_t Add(Vector v);

  /// Exact top-`k` by cosine similarity, highest first. Ties break by
  /// lower insertion index (deterministic).
  std::vector<Hit> TopK(const Vector& query, std::size_t k) const;

  std::size_t size() const { return dims_.size(); }

 private:
  struct Posting {
    std::uint32_t row = 0;
    float value = 0.0f;
  };

  std::vector<std::vector<Posting>> lists_;  // one per dimension
  std::vector<std::uint32_t> dims_;          // true dimension per row
};

}  // namespace gred::embed

#endif  // GREDVIS_EMBED_POSTING_LIST_STORE_H_
