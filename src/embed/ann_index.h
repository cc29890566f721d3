#ifndef GREDVIS_EMBED_ANN_INDEX_H_
#define GREDVIS_EMBED_ANN_INDEX_H_

#include <cstdint>
#include <vector>

#include "embed/flat_vectors.h"
#include "embed/kernel.h"
#include "embed/quantized_vectors.h"
#include "embed/vector_store.h"

namespace gred::embed {

/// Inverted-file (IVF-flat) approximate nearest-neighbour index with
/// multi-probe search, optional int8-quantized list scans, and
/// incremental training refresh.
///
/// The exact posting-list store serves nvBench-scale libraries (up to a
/// few tens of thousands of vectors); this index exists for 10^5-10^6
/// entry libraries: vectors are k-means-clustered and a query scans only
/// the `num_probes` most similar clusters. Deterministic throughout
/// (seeded sampling, fixed iteration count, insertion-index tie-breaks).
///
/// Scale machinery on top of the PR 3 version:
///  - cluster count defaults to ~sqrt(n) (num_clusters = 0) so probe
///    cost and list length stay balanced as the library grows;
///  - k-means trains on a deterministic sample (train_sample_cap) and
///    only the final assignment pass touches every vector, keeping
///    Build roughly O(n * sqrt(n_sample)) instead of O(n * k * iters);
///  - Build() warm-starts from the previous centroids when called again
///    (incremental training refresh), so a refresh moves centroids
///    gently instead of re-clustering from scratch;
///  - vectors Added after Build() join an unindexed pending tail that
///    TopK scans exhaustively (exact), so the index never returns wrong
///    answers while the library grows; once the library outgrows
///    refresh_growth_factor * built_size, the next Add triggers an
///    automatic warm-started Build;
///  - with quantized_scan, probed lists and the pending tail are scanned
///    over int8 codes (QuantizedVectors) into a widened shortlist that
///    is re-ranked with the exact float kernel — the scores returned are
///    always exact-kernel scores.
///
/// Vectors and centroids share VectorStore's 32-byte-aligned flat SoA
/// layout and the dispatching SIMD dot kernel, and candidates feed a
/// bounded top-k heap, so a query allocates O(k + shortlist) hits rather
/// than materializing every probed member.
class IvfIndex {
 public:
  struct Options {
    /// Target cluster count; 0 = auto (~sqrt(n), clamped to [1, 4096]).
    std::size_t num_clusters = 16;
    std::size_t num_probes = 4;
    std::size_t kmeans_iterations = 8;
    std::uint64_t seed = 42;
    /// Training-sample ceiling for k-means: past this many vectors,
    /// centroid updates train on a deterministic sample and only the
    /// final assignment pass is exhaustive.
    std::size_t train_sample_cap = 8192;
    /// Automatic refresh: when an Add grows the library past
    /// refresh_growth_factor * built_size, Build() reruns (warm-started).
    /// Values <= 1 disable automatic refresh.
    double refresh_growth_factor = 1.5;
    /// Scan probed lists over int8 codes and re-rank a widened
    /// shortlist with the exact float kernel (see ShortlistSize).
    bool quantized_scan = false;
    std::size_t rerank_factor = 4;
    std::size_t rerank_slack = 32;
  };

  IvfIndex();
  explicit IvfIndex(Options options);

  /// Adds a vector (L2-normalized); returns its insertion index. After a
  /// Build, new vectors join the exhaustively-scanned pending tail until
  /// the growth policy triggers a refresh.
  std::size_t Add(Vector v);

  /// (Re)clusters the library. The first call trains from scratch;
  /// subsequent calls warm-start from the existing centroids. Safe to
  /// call at any point; TopK before the first Build returns {} (the
  /// index has no lists to probe yet).
  void Build();

  /// Approximate top-k by cosine similarity over the probed clusters
  /// plus the exact pending tail. Hit indexes refer to insertion order,
  /// as in VectorStore; scores are exact float-kernel scores even under
  /// quantized_scan.
  std::vector<VectorStore::Hit> TopK(const Vector& query,
                                     std::size_t k) const;

  std::size_t size() const { return vectors_.size(); }
  bool built() const { return built_; }
  /// Library size at the last Build (vectors beyond it form the
  /// pending tail).
  std::size_t built_size() const { return built_size_; }
  /// Cluster count of the last Build (0 before the first Build).
  std::size_t num_clusters() const { return centroids_.size(); }

  const Options& options() const { return options_; }

  /// Adjusts the probe count of subsequent TopK calls without a rebuild
  /// (lists are probe-count independent). The recall@k-vs-latency sweep
  /// walks the frontier through this.
  void set_num_probes(std::size_t num_probes) {
    options_.num_probes = num_probes;
  }

 private:
  /// Dot product under the CosineSimilarity contract: mismatched
  /// dimensions (or empty vectors) score 0 rather than silently
  /// truncating to the shorter vector.
  static double ContractDot(const FlatVectors& rows, std::size_t i,
                            const Vector& q);

  /// The cluster count Build targets for `n` vectors.
  std::size_t TargetClusters(std::size_t n) const;

  Options options_;
  FlatVectors vectors_;
  QuantizedVectors codes_;  // in lockstep with vectors_ when quantized_scan
  FlatVectors centroids_;
  std::vector<std::vector<std::size_t>> lists_;  // per-centroid members
  bool built_ = false;
  std::size_t built_size_ = 0;
};

}  // namespace gred::embed

#endif  // GREDVIS_EMBED_ANN_INDEX_H_
