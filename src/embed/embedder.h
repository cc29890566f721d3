#ifndef GREDVIS_EMBED_EMBEDDER_H_
#define GREDVIS_EMBED_EMBEDDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nl/lexicon.h"

namespace gred::embed {

/// Dense embedding vector: what the dense consumers (VectorStore, IVF,
/// Seq2Vis) store and scan. The embedders emit SparseRow; Densify
/// converts at those consumers' boundary.
using Vector = std::vector<float>;

/// Largest dimension a sparse row can have (its dims are uint16).
inline constexpr std::size_t kMaxSparseDimension = std::size_t{1} << 16;

/// A sparse embedding row: the non-zero entries of a `dimension`-float
/// vector. `dims` is strictly ascending and below `dimension`; `values`
/// holds the matching entries, every one finite and never ±0. The hash
/// embedders set ~100 of 512 dimensions, so a row takes ~600 bytes where
/// the dense vector takes 2 KiB.
struct SparseRow {
  std::vector<std::uint16_t> dims;
  std::vector<float> values;
  std::uint32_t dimension = 0;  // the true (dense) dimension

  std::size_t nnz() const { return dims.size(); }
  friend bool operator==(const SparseRow&, const SparseRow&) = default;
};

/// Aborts with a message unless `row` is well formed: as many values as
/// dims, and dims strictly ascending and below `row.dimension`. Every
/// consumer that indexes by a row's dims calls it first; O(nnz).
void CheckSparseRow(const SparseRow& row);

/// The dense vector of `row`: `row.dimension` floats, +0 off its dims.
Vector Densify(const SparseRow& row);

/// Cosine similarity; returns 0 for zero vectors or dimension mismatch.
double CosineSimilarity(const Vector& a, const Vector& b);

/// The factor L2Normalize scales by: float(1 / sqrt(sum of v*v)), the
/// squares summed in double in order; 1 when that sum is 0. Zero entries
/// add +0 to the sum, so the non-zeros of a vector, in ascending order,
/// give the same factor as the whole vector (DESIGN.md §15).
float InverseNorm(const std::vector<float>& values);

/// Normalizes `v` to unit length in place (no-op on the zero vector).
void L2Normalize(Vector* v);

/// Normalizes `row` to unit length in place, over its non-zeros only:
/// bit-identical to L2Normalize of its dense vector. An entry that the
/// scaling rounds to zero is dropped, so the row stays free of ±0.
void L2Normalize(SparseRow* row);

/// Interface for text embedding models.
///
/// Stands in for OpenAI's `text-embedding-3-large` in the paper's
/// preparatory phase (Section 4.1). Implementations must be deterministic.
class TextEmbedder {
 public:
  virtual ~TextEmbedder() = default;

  /// Embeds `text` into a unit-length sparse row of `dimension()`.
  virtual SparseRow Embed(const std::string& text) const = 0;

  virtual std::size_t dimension() const = 0;
};

/// Configuration for the hash embedders.
struct EmbedderOptions {
  std::size_t dimension = 512;
  /// Weight of stemmed-token features.
  double token_weight = 1.0;
  /// Weight of concept-id features (semantic folding). Zero disables
  /// concept knowledge, turning the model into a purely lexical embedder.
  double concept_weight = 1.6;
  /// Weight of character-trigram features (robustness to morphology
  /// and identifier-style tokens).
  double trigram_weight = 0.3;
};

/// Concept-aware hashed bag-of-features embedder.
///
/// Features: (a) stemmed content tokens, (b) the lexicon concept id of
/// every known token — this is what places "wage" next to "salary", the
/// property the paper gets from the pretrained embedding model — and
/// (c) character trigrams. Each feature is FNV-hashed into one of
/// `dimension` buckets with a sign derived from the hash (feature
/// hashing) and a fixed per-kind weight (no IDF), then the row is
/// L2-normalized. Buckets are summed in a per-thread accumulator and
/// only the non-zero ones leave it, as an exactly sized SparseRow.
class SemanticHashEmbedder : public TextEmbedder {
 public:
  /// Aborts unless 0 < options.dimension <= kMaxSparseDimension.
  SemanticHashEmbedder(const nl::Lexicon* lexicon, EmbedderOptions options);

  /// Embedder with the default lexicon and options.
  SemanticHashEmbedder();

  SparseRow Embed(const std::string& text) const override;
  std::size_t dimension() const override { return options_.dimension; }

 private:
  const nl::Lexicon* lexicon_;  // not owned
  EmbedderOptions options_;
};

/// Purely lexical variant (concept weight zero): what a model without
/// pretrained semantic knowledge "sees". Used by the RGVisNet baseline's
/// prototype retrieval.
class LexicalHashEmbedder : public TextEmbedder {
 public:
  explicit LexicalHashEmbedder(EmbedderOptions options = {});

  SparseRow Embed(const std::string& text) const override;
  std::size_t dimension() const override { return impl_.dimension(); }

 private:
  SemanticHashEmbedder impl_;
};

}  // namespace gred::embed

#endif  // GREDVIS_EMBED_EMBEDDER_H_
