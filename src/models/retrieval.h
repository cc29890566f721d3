#ifndef GREDVIS_MODELS_RETRIEVAL_H_
#define GREDVIS_MODELS_RETRIEVAL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "dataset/example.h"
#include "embed/embedder.h"
#include "embed/retrieval_index.h"

namespace gred::models {

/// A retrieval index over one text of every training example (its NLQ
/// or its DVQ), with one retrieval row per distinct text.
///
/// Training libraries repeat themselves: at a 20000-example library only
/// 37% of the DVQ texts are distinct. Rows with equal text embed to equal
/// vectors and score equally against every query, so the index embeds
/// and stores each distinct text once, as one row in order of first
/// occurrence, and keeps the training rows of each text (its members,
/// ascending) beside it. A query asks the store for the top-k distinct
/// rows, expands each to its members and keeps the k best by
/// embed::HitBetter. The answer is bit-identical to an index with one
/// row per example. The store breaks score ties by insertion order,
/// which is first-member order, so every group that outranks a row's
/// group has a first member that outranks the row itself; a row among
/// the k best is outranked by fewer than k rows, so its group is among
/// the k best groups.
///
/// Search runs through embed::RetrievalIndex, so the backend (exact or
/// IVF multi-probe) is chosen by the `config` argument — by default, the
/// GRED_RETRIEVAL_* environment knobs. The default backend is exact
/// (per-dimension posting lists), whose hits are bit-identical to a
/// dense scan of the library; the IVF backend trains its lists on the
/// distinct rows.
class LibraryIndex {
 public:
  struct Hit {
    const dataset::Example* example = nullptr;
    double score = 0.0;
    std::size_t index = 0;  // position of `example` in the training split
  };

  /// Top-k training examples whose library text is most similar to
  /// `text`, best first; ties break by lower training index.
  std::vector<Hit> TopK(const std::string& text, std::size_t k) const;

  /// Training rows indexed.
  std::size_t size() const { return members_.size(); }

  /// Distinct texts: the rows the retrieval index stores and scores.
  std::size_t distinct_size() const { return index_.size(); }

 protected:
  /// The library text of one training example.
  using TextOf = std::string (*)(const dataset::Example&);

  /// Indexes `text_of` of every row of `train` (not owned; must outlive
  /// the index) using `embedder` (not owned), which is called from
  /// several threads at once: distinct texts are embedded in parallel
  /// batches and added in order of first occurrence.
  LibraryIndex(const std::vector<dataset::Example>* train,
               const embed::TextEmbedder* embedder, TextOf text_of,
               embed::RetrievalConfig config);

 private:
  const std::vector<dataset::Example>* train_;
  const embed::TextEmbedder* embedder_;
  embed::RetrievalIndex index_;  // one row per distinct text
  /// CSR of the groups: the training rows of distinct row g are
  /// members_[group_begin_[g] .. group_begin_[g + 1]), ascending.
  std::vector<std::size_t> group_begin_;
  std::vector<std::size_t> members_;
};

/// The NLQ library: a LibraryIndex keyed by each example's NLQ.
///
/// Baselines build it with a lexical embedder (their "memory" of the
/// training distribution); GRED builds it with the semantic embedder
/// (Section 4.1's embedding vector library).
class ExampleIndex : public LibraryIndex {
 public:
  ExampleIndex(const std::vector<dataset::Example>* train,
               const embed::TextEmbedder* embedder,
               embed::RetrievalConfig config = embed::RetrievalConfig::FromEnv());
};

/// The DVQ library: a LibraryIndex keyed by each example's DVQ text
/// (GRED's DVQ embedding library used by the Retuner).
class DvqIndex : public LibraryIndex {
 public:
  DvqIndex(const std::vector<dataset::Example>* train,
           const embed::TextEmbedder* embedder,
           embed::RetrievalConfig config = embed::RetrievalConfig::FromEnv());
};

}  // namespace gred::models

#endif  // GREDVIS_MODELS_RETRIEVAL_H_
