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
  kExact = 0,      // per-dimension posting lists (bit-identical to the
                   // dense VectorStore::TopK scan)
  kQuantized = 1,  // int8 scan + exact re-rank of a widened shortlist
  kIvf = 2,        // IVF multi-probe (+ int8 list scans) + exact re-rank
};

/// Stable names ("exact", "quantized", "ivf") for env/config/report use.
const char* RetrievalBackendName(RetrievalBackend backend);

/// Configuration of a RetrievalIndex.
///
/// FromEnv() reads the process-wide knobs — every retrieval surface
/// (Gred's NLQ/DVQ libraries, eval, `gredvis serve`) constructs its
/// indexes through it, so one environment variable flips the whole
/// pipeline between exact and approximate retrieval:
///   GRED_RETRIEVAL_BACKEND   exact | quantized | ivf   (default exact)
///   GRED_RETRIEVAL_PROBES    IVF probe count            (default 8)
///   GRED_RETRIEVAL_CLUSTERS  IVF cluster count, 0 = auto ~sqrt(n)
///   GRED_RETRIEVAL_RERANK    shortlist widening factor  (default 4)
/// Invalid values print a message and exit(2) (the bench env-override
/// convention: a mistyped knob must not silently fall back and burn a
/// run on the wrong configuration). The default is exact, whose hits
/// are bit-identical to the dense VectorStore::TopK scan, so unset
/// environments — every committed eval table — produce the same output
/// as a dense scan would.
struct RetrievalConfig {
  RetrievalBackend backend = RetrievalBackend::kExact;
  /// Quantized-backend shortlist widening (see ShortlistSize).
  std::size_t rerank_factor = 4;
  std::size_t rerank_slack = 32;
  /// IVF-backend options. FromEnv sets quantized_scan so the IVF
  /// backend scans probed lists over int8 codes by default.
  IvfIndex::Options ivf;

  static RetrievalConfig FromEnv();
};

/// The retrieval surface behind ExampleIndex/DvqIndex: one API over the
/// exact posting-list store, the quantized store, and the IVF index, so
/// the embedding libraries pick their backend from configuration instead
/// of code. The exact backend keeps no dense copy of the library: it
/// stores each row's non-zeros in per-dimension posting lists
/// (PostingListStore) and returns VectorStore::TopK's hits bit for bit.
///
/// Usage: Add() every library vector, Seal() once, then TopK() freely
/// (TopK is const and thread-safe after Seal). Vectors Added after
/// Seal() remain retrievable immediately — the exact backend appends to
/// its posting lists, the quantized backend shadows each new row on
/// insert and the IVF backend scans its pending tail exactly until its
/// growth policy triggers a warm-started retrain. Hit indexes are
/// insertion indexes; scores are always exact float-kernel scores
/// (approximate backends re-rank with the exact kernel before
/// returning).
class RetrievalIndex {
 public:
  explicit RetrievalIndex(RetrievalConfig config = {});

  /// Adds a vector (L2-normalized); returns its insertion index.
  std::size_t Add(Vector v);

  /// Finishes the build phase: quantizes any unshadowed rows and/or
  /// trains the IVF lists (a no-op on the exact backend). Idempotent;
  /// must be called before the first TopK on the IVF backend (an
  /// unsealed IVF index has no lists and returns no hits).
  void Seal();

  /// Top-k most similar stored vectors, best first; exact-kernel scores,
  /// insertion-index tie-break.
  std::vector<Hit> TopK(const Vector& query, std::size_t k) const;

  std::size_t size() const;
  RetrievalBackend backend() const { return config_.backend; }
  const RetrievalConfig& config() const { return config_; }

 private:
  RetrievalConfig config_;
  PostingListStore postings_;  // exact backend
  VectorStore store_;          // quantized backend
  IvfIndex ivf_;               // ivf backend
};

}  // namespace gred::embed

#endif  // GREDVIS_EMBED_RETRIEVAL_INDEX_H_
