#ifndef GREDVIS_EMBED_RETRIEVAL_INDEX_H_
#define GREDVIS_EMBED_RETRIEVAL_INDEX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "embed/ann_index.h"
#include "embed/embedder.h"
#include "embed/kernel.h"
#include "embed/posting_list_store.h"
#include "embed/vector_store.h"

namespace gred::embed {

/// Which search machinery answers a retrieval query.
enum class RetrievalBackend {
  kExact = 0,  // bound-pruned posting lists (bit-identical to the dense
               // VectorStore::TopK scan)
  kIvf = 1,    // IVF multi-probe (+ int8 list scans) + exact re-rank
};

/// Stable names ("exact", "ivf") for env/config/report use.
const char* RetrievalBackendName(RetrievalBackend backend);

/// Configuration of a RetrievalIndex.
///
/// FromEnv() reads the process-wide knobs — every retrieval surface
/// (Gred's NLQ/DVQ libraries, eval, `gredvis serve`) constructs its
/// indexes through it, so one environment variable flips the whole
/// pipeline between exact and approximate retrieval:
///   GRED_RETRIEVAL_BACKEND   exact | ivf              (default exact)
///   GRED_RETRIEVAL_PROBES    IVF probe count           (default 8)
///   GRED_RETRIEVAL_CLUSTERS  IVF cluster count, 0 = auto ~sqrt(n)
/// Invalid values, including set-but-empty ones, print a message and
/// exit(2) (util/env.h: a mistyped knob must not silently fall back and
/// burn a run on the wrong configuration). The default is exact, whose hits
/// are bit-identical to the dense VectorStore::TopK scan, so unset
/// environments — every committed eval table — produce the same output
/// as a dense scan would.
struct RetrievalConfig {
  RetrievalBackend backend = RetrievalBackend::kExact;
  /// IVF-backend options. FromEnv sets quantized_scan so the IVF
  /// backend scans probed lists over int8 codes by default.
  IvfIndex::Options ivf;

  static RetrievalConfig FromEnv();
};

/// The retrieval surface behind ExampleIndex/DvqIndex: one API over the
/// exact posting-list store and the IVF index, so the embedding
/// libraries pick their backend from configuration instead of code.
/// Rows and queries are the embedders' sparse rows. The exact backend
/// takes them as they are and never densifies: it stores each row's
/// non-zeros as a CSR row plus posting lists for the selective
/// dimensions (PostingListStore), rescores only the rows whose score
/// bound can reach the top-k, and returns VectorStore::TopK's hits bit
/// for bit. The IVF backend is dense; it densifies each row and query at
/// its own boundary.
///
/// Usage: Add() every library row, Seal() once, then TopK() freely
/// (TopK is const and thread-safe after Seal). Rows Added after
/// Seal() remain retrievable immediately — the exact backend appends to
/// its light posting lists and heavy norms, and the IVF backend scans its
/// pending tail exactly until its growth policy triggers a warm-started
/// retrain.
/// Hit indexes are insertion indexes; scores are always exact
/// float-kernel scores (the IVF backend re-ranks with the exact kernel
/// before returning).
class RetrievalIndex {
 public:
  explicit RetrievalIndex(RetrievalConfig config = {});

  /// Adds a row (L2-normalized); returns its insertion index.
  std::size_t Add(const SparseRow& row);

  /// Finishes the build phase: splits the exact backend's dimensions
  /// into posting-listed and heavy ones (an unsealed exact index answers
  /// exactly but by a full rescore), or trains the IVF lists. Idempotent;
  /// must be called before the first TopK on the IVF backend (an unsealed
  /// IVF index has no lists and returns no hits).
  void Seal();

  /// Top-k most similar stored vectors, best first; exact-kernel scores,
  /// insertion-index tie-break.
  std::vector<Hit> TopK(const SparseRow& query, std::size_t k) const;

  std::size_t size() const;
  RetrievalBackend backend() const { return config_.backend; }
  const RetrievalConfig& config() const { return config_; }

 private:
  RetrievalConfig config_;
  PostingListStore postings_;  // exact backend
  IvfIndex ivf_;               // ivf backend
};

}  // namespace gred::embed

#endif  // GREDVIS_EMBED_RETRIEVAL_INDEX_H_
