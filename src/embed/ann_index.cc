#include "embed/ann_index.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace gred::embed {

double IvfIndex::ContractDot(const FlatVectors& rows, std::size_t i,
                             const Vector& q) {
  if (rows.row_size(i) != q.size() || q.empty()) return 0.0;
  return Dot(rows.row(i), q.data(), q.size());
}

IvfIndex::IvfIndex() : IvfIndex(Options()) {}

IvfIndex::IvfIndex(Options options) : options_(options) {}

std::size_t IvfIndex::Add(Vector v) {
  L2Normalize(&v);
  const std::size_t index = vectors_.Append(v);
  if (options_.quantized_scan) {
    codes_.Append(vectors_.row(index), vectors_.row_size(index));
  }
  // Incremental refresh: once the pending tail outgrows the built index
  // by the growth factor, retrain (warm-started) so probe selectivity
  // keeps up with the library. Before the first Build, callers own the
  // Build() timing.
  if (built_ && options_.refresh_growth_factor > 1.0) {
    const double threshold =
        static_cast<double>(std::max<std::size_t>(built_size_, 1)) *
        options_.refresh_growth_factor;
    if (static_cast<double>(vectors_.size()) >= threshold) Build();
  }
  return index;
}

std::size_t IvfIndex::TargetClusters(std::size_t n) const {
  if (options_.num_clusters > 0) {
    return std::min(options_.num_clusters, std::max<std::size_t>(1, n));
  }
  const auto root = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(n))));
  return std::clamp<std::size_t>(root, 1, std::min<std::size_t>(4096, n));
}

void IvfIndex::Build() {
  const std::size_t n = vectors_.size();
  lists_.clear();
  if (n == 0) {
    centroids_ = FlatVectors();
    built_ = true;
    built_size_ = 0;
    return;
  }
  const std::size_t k = TargetClusters(n);

  // Deterministic training sample: k-means iterates over at most
  // train_sample_cap vectors; only the final assignment pass is
  // exhaustive. Seeded by options_.seed XOR the library size so a
  // refresh at a larger n draws a fresh (but reproducible) sample.
  Rng rng(options_.seed ^ (static_cast<std::uint64_t>(n) << 20));
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);
  const std::size_t sample_n =
      std::min(n, std::max(options_.train_sample_cap, k));
  // Warm start: keep centroids that already exist (incremental refresh
  // moves them gently); seed any missing ones from the sample.
  if (centroids_.size() > k) centroids_ = FlatVectors();
  for (std::size_t c = centroids_.size(); c < k; ++c) {
    centroids_.Append(vectors_.CopyRow(order[c % n]));
  }

  // Spherical k-means on the sample. Sums run at max_dim (true widest
  // row): a short row's zero padding adds nothing, so mixed-dimension
  // stores stay well-defined, and stride rounding never widens a
  // centroid's true dimension.
  const std::size_t dim = vectors_.max_dim();
  std::vector<std::size_t> sample_assignment(sample_n, 0);
  for (std::size_t iter = 0; iter < options_.kmeans_iterations; ++iter) {
    bool changed = false;
    for (std::size_t s = 0; s < sample_n; ++s) {
      const std::size_t i = order[s];
      const float* vrow = vectors_.row(i);
      const std::size_t vdim = vectors_.row_size(i);
      std::size_t best = 0;
      double best_dot = -2.0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = centroids_.row_size(c) == vdim && vdim > 0
                             ? Dot(centroids_.row(c), vrow, vdim)
                             : 0.0;
        if (d > best_dot) {
          best_dot = d;
          best = c;
        }
      }
      changed = changed || best != sample_assignment[s];
      sample_assignment[s] = best;
    }
    if (!changed && iter > 0) break;
    std::vector<Vector> sums(k, Vector(dim, 0.0f));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t s = 0; s < sample_n; ++s) {
      const float* row = vectors_.row(order[s]);
      Vector& sum = sums[sample_assignment[s]];
      for (std::size_t d = 0; d < dim; ++d) {
        sum[d] += row[d];
      }
      ++counts[sample_assignment[s]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its centroid
      L2Normalize(&sums[c]);
      centroids_.AssignRow(c, sums[c]);
    }
  }

  // Exhaustive assignment: every vector (sampled or not) joins the list
  // of its most similar centroid.
  lists_.assign(k, {});
  for (std::size_t i = 0; i < n; ++i) {
    const float* vrow = vectors_.row(i);
    const std::size_t vdim = vectors_.row_size(i);
    std::size_t best = 0;
    double best_dot = -2.0;
    for (std::size_t c = 0; c < k; ++c) {
      const double d = centroids_.row_size(c) == vdim && vdim > 0
                           ? Dot(centroids_.row(c), vrow, vdim)
                           : 0.0;
      if (d > best_dot) {
        best_dot = d;
        best = c;
      }
    }
    lists_[best].push_back(i);
  }
  built_ = true;
  built_size_ = n;
}

std::vector<VectorStore::Hit> IvfIndex::TopK(const Vector& query,
                                             std::size_t k) const {
  if (!built_ || vectors_.empty()) return {};
  Vector q = query;
  L2Normalize(&q);
  // Rank centroids; probe the best few. Centroid count is ~sqrt(n), so
  // this stays a float scan regardless of quantized_scan.
  std::vector<VectorStore::Hit> centroid_rank;
  centroid_rank.reserve(centroids_.size());
  for (std::size_t c = 0; c < centroids_.size(); ++c) {
    centroid_rank.push_back(VectorStore::Hit{c, ContractDot(centroids_, c, q)});
  }
  const std::size_t probes =
      std::min(options_.num_probes, centroid_rank.size());
  std::partial_sort(centroid_rank.begin(),
                    centroid_rank.begin() + static_cast<long>(probes),
                    centroid_rank.end(),
                    [](const VectorStore::Hit& a, const VectorStore::Hit& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.index < b.index;
                    });

  if (options_.quantized_scan && codes_.size() == vectors_.size()) {
    // Approximate pass over probed lists + pending tail, then an exact
    // float re-rank of the widened shortlist: the returned scores carry
    // no quantization error.
    const std::size_t shortlist =
        ShortlistSize(std::min(k, vectors_.size()), vectors_.size(),
                      options_.rerank_factor, options_.rerank_slack);
    const QuantizedVectors::Query qq = QuantizedVectors::QuantizeQuery(q);
    TopKSelector approx(shortlist);
    for (std::size_t p = 0; p < probes; ++p) {
      for (std::size_t i : lists_[centroid_rank[p].index]) {
        approx.Offer(i, codes_.ApproxDot(i, qq));
      }
    }
    for (std::size_t i = built_size_; i < vectors_.size(); ++i) {
      approx.Offer(i, codes_.ApproxDot(i, qq));
    }
    TopKSelector exact(std::min(k, vectors_.size()));
    for (const VectorStore::Hit& cand : approx.Take()) {
      exact.Offer(cand.index, ContractDot(vectors_, cand.index, q));
    }
    return exact.Take();
  }

  TopKSelector selector(std::min(k, vectors_.size()));
  for (std::size_t p = 0; p < probes; ++p) {
    for (std::size_t i : lists_[centroid_rank[p].index]) {
      selector.Offer(i, ContractDot(vectors_, i, q));
    }
  }
  // Pending tail (Added after the last Build): scanned exactly, so
  // growth never loses brand-new vectors.
  for (std::size_t i = built_size_; i < vectors_.size(); ++i) {
    selector.Offer(i, ContractDot(vectors_, i, q));
  }
  return selector.Take();
}

}  // namespace gred::embed
