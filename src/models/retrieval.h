#ifndef GREDVIS_MODELS_RETRIEVAL_H_
#define GREDVIS_MODELS_RETRIEVAL_H_

#include <memory>
#include <string>
#include <vector>

#include "dataset/example.h"
#include "embed/embedder.h"
#include "embed/retrieval_index.h"

namespace gred::models {

/// A retrieval index over training examples keyed by NLQ embedding.
///
/// Baselines build it with a lexical embedder (their "memory" of the
/// training distribution); GRED builds it with the semantic embedder
/// (Section 4.1's embedding vector library).
///
/// Search runs through embed::RetrievalIndex, so the backend (exact or
/// IVF multi-probe) is chosen by the
/// `config` argument — by default, the GRED_RETRIEVAL_* environment
/// knobs. The default backend is exact (per-dimension posting lists),
/// whose hits are bit-identical to a dense scan of the library.
class ExampleIndex {
 public:
  struct Hit {
    const dataset::Example* example = nullptr;
    double score = 0.0;
    std::size_t index = 0;  // position of `example` in the training split
  };

  /// Indexes `train` (not owned; must outlive the index) using
  /// `embedder` (not owned), which is called from several threads at once:
  /// the library is embedded in parallel batches and added in training
  /// order.
  ExampleIndex(const std::vector<dataset::Example>* train,
               const embed::TextEmbedder* embedder,
               embed::RetrievalConfig config = embed::RetrievalConfig::FromEnv());

  /// Top-k most similar training examples for `nlq`, best first.
  std::vector<Hit> TopK(const std::string& nlq, std::size_t k) const;

  std::size_t size() const { return index_.size(); }

 private:
  const std::vector<dataset::Example>* train_;
  const embed::TextEmbedder* embedder_;
  embed::RetrievalIndex index_;
};

/// A retrieval index over DVQ strings (GRED's DVQ embedding library used
/// by the Retuner; also RGVisNet's prototype codebase). Backend selection
/// mirrors ExampleIndex.
class DvqIndex {
 public:
  struct Hit {
    const dataset::Example* example = nullptr;
    double score = 0.0;
    std::size_t index = 0;  // position of `example` in the training split
  };

  DvqIndex(const std::vector<dataset::Example>* train,
           const embed::TextEmbedder* embedder,
           embed::RetrievalConfig config = embed::RetrievalConfig::FromEnv());

  /// Top-k training examples whose DVQ text is most similar to `dvq_text`.
  std::vector<Hit> TopK(const std::string& dvq_text, std::size_t k) const;

 private:
  const std::vector<dataset::Example>* train_;
  const embed::TextEmbedder* embedder_;
  embed::RetrievalIndex index_;
};

}  // namespace gred::models

#endif  // GREDVIS_MODELS_RETRIEVAL_H_
