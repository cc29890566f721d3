#ifndef GREDVIS_EMBED_POSTING_LIST_STORE_H_
#define GREDVIS_EMBED_POSTING_LIST_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "embed/embedder.h"
#include "embed/kernel.h"

namespace gred::embed {

/// An exact top-K cosine-similarity index over sparse rows: each row's
/// non-zeros as a CSR row (ascending dims + values), plus one posting
/// list of (row, value) pairs for every *light* dimension.
///
/// Rows come in as the embedders emit them (SparseRow), and queries too:
/// no dense vector is built on the build or query path. Add renormalizes a
/// row over its non-zeros, which gives L2Normalize's bits for its dense
/// vector (DESIGN.md §15), and appends it; a query is normalized the same
/// way into per-thread dense scratch that is filled and cleared in
/// O(nnz).
///
/// Seal() decides which dimensions are light: a dimension whose list
/// would cover at least half of the rows is heavy (a dense column of it
/// would be no larger than its postings) and keeps no list; every row
/// instead stores the norm of its heavy entries. The hash embedders emit
/// ~100 non-zeros of 512, but a few dimensions are set in most rows; on
/// the 20k-example library they hold 49% (NLQ) and 81% (DVQ) of the
/// postings a walk over all of a query's lists reads (DESIGN.md §15).
///
/// A query walks only its light lists, into one double per row. By
/// Cauchy–Schwarz a row's score is at most
///   light_r + ‖q_heavy‖·‖x_r,heavy‖ + kBoundSlack,
/// where the slack covers every rounding in that bound and in the score
/// (DESIGN.md §15 derives it for unit vectors of <= 2^16 dims). The k
/// rows with the best bounds are rescored to seed the k-th score θ; then
/// the rows whose bound reaches θ are rescored best bound first, until
/// the next bound falls below the current k-th score. No row that can
/// reach the top-k is skipped.
///
/// Answers are bit-identical to VectorStore::TopK — same indexes, same
/// order, same score bits. A rescore walks the row's CSR entries in
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
/// Before the first Seal() no dimension has a list, so every row's whole
/// norm is its heavy norm and a query rescores rows by bound alone: the
/// same code path, exact, but a full scan. Add() after Seal() keeps the
/// light/heavy split Seal() chose (dimensions it never saw count as
/// heavy); Seal() again re-decides it from all rows.
///
/// A query whose dimension differs from a row's scores exactly 0 against
/// it (the CosineSimilarity contract), and ties break by lower insertion
/// index. TopK is const and thread-safe against other TopK calls; its
/// per-row accumulators and dense query are reused per-thread scratch.
/// Seal indexes rows on every core (util/thread_pool.h ParallelFor); the
/// lists it builds do not depend on the thread count.
class PostingListStore {
 public:
  /// Largest vector dimension a row may have (dims are stored as uint16).
  static constexpr std::size_t kMaxDimension = kMaxSparseDimension;

  /// Added to every row's score bound; covers the double rounding of the
  /// light sum, both heavy norms, their product and the rescored score
  /// (~4e-11 at kMaxDimension; DESIGN.md §15).
  static constexpr double kBoundSlack = 1e-9;

  /// Adds `row` (L2-normalized over its non-zeros); returns its insertion
  /// index. Aborts if the row's dimension exceeds kMaxDimension.
  std::size_t Add(const SparseRow& row);

  /// Rebuilds the light posting lists and heavy norms from the CSR rows,
  /// re-deciding which dimensions are heavy. Idempotent on a store that
  /// has not grown since.
  void Seal();

  /// Exact top-`k` by cosine similarity, highest first. Ties break by
  /// lower insertion index (deterministic).
  std::vector<Hit> TopK(const SparseRow& query, std::size_t k) const;

  std::size_t size() const { return dims_.size(); }

 private:
  struct Posting {
    std::uint32_t row = 0;
    float value = 0.0f;
  };

  bool Light(std::size_t dim) const {
    return dim < light_.size() && light_[dim];
  }

  /// Hands each light entry of `row` (its CSR index) to `on_light` and
  /// returns the norm of its heavy entries. Add and Seal share it, so a
  /// row's heavy norm is computed the same way whenever it is indexed.
  template <typename OnLight>
  double IndexRow(std::uint32_t row, OnLight on_light) const;

  /// The row's DotBlocked score against the normalized `dim`-dimensional
  /// query `q` (dense).
  double Rescore(std::size_t row, const float* q, std::size_t dim) const;

  std::vector<std::uint32_t> dims_;          // true dimension per row
  std::vector<std::uint32_t> row_begin_{0};  // CSR offsets, size() + 1
  std::vector<std::uint16_t> entry_dims_;    // CSR dims, ascending per row
  std::vector<float> entry_values_;          // CSR values
  std::vector<double> heavy_norms_;          // per row ‖x_heavy‖
  std::vector<bool> light_;                  // per dimension, set by Seal
  std::vector<std::vector<Posting>> lists_;  // one per light dimension
};

}  // namespace gred::embed

#endif  // GREDVIS_EMBED_POSTING_LIST_STORE_H_
