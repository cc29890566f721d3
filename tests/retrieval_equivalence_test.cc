// Equivalence suite for the retrieval kernels.
//
// The flat SoA store, blocked dot kernel and bounded top-k heap must
// return bit-identical hits (scores AND order) to a naive reference —
// materialize every candidate, full sort, truncate — across randomized
// inputs and the edge cases that historically bite top-k implementations
// (empty store, k=0, k>size, duplicate vectors, zero vectors). The
// bound-pruned posting-list store behind RetrievalIndex's exact backend
// must in turn match that dense scan bit for bit, on random sparse
// vectors, on inputs aimed at its score bound and stop test, and on the
// benchmark's real NLQ and DVQ libraries, and stay identical under
// many-thread TopK hammers. The training libraries, which keep one
// retrieval row per distinct text, must answer exactly like an index
// with one row per training example. The CachingEmbedder is hammered
// from many threads and must behave exactly like its inner embedder.
// The hammers run under TSan in scripts/tier1.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dataset/benchmark.h"
#include "embed/ann_index.h"
#include "embed/caching_embedder.h"
#include "embed/embedder.h"
#include "embed/kernel.h"
#include "embed/posting_list_store.h"
#include "embed/retrieval_index.h"
#include "embed/vector_store.h"
#include "models/retrieval.h"
#include "util/rng.h"

namespace gred::embed {
namespace {

/// The naive reference the kernel must match bit-for-bit: score every
/// stored vector (CosineSimilarity contract: dimension mismatch and
/// empty vectors score 0), sort all hits best-first with the shared
/// ordering, truncate to k. This is the seed implementation's shape —
/// O(n) materialization + full sort — with the shared DotBlocked kernel
/// substituted for its scalar loop.
std::vector<Hit> NaiveTopK(const std::vector<Vector>& raw_vectors,
                           const Vector& raw_query, std::size_t k) {
  std::vector<Vector> vectors = raw_vectors;
  for (Vector& v : vectors) L2Normalize(&v);
  Vector q = raw_query;
  L2Normalize(&q);
  std::vector<Hit> hits;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    const Vector& v = vectors[i];
    double score = v.size() == q.size() && !q.empty()
                       ? DotBlocked(v.data(), q.data(), q.size())
                       : 0.0;
    hits.push_back(Hit{i, score});
  }
  std::sort(hits.begin(), hits.end(), HitBetter);
  hits.resize(std::min(k, hits.size()));
  return hits;
}

Vector RandomVector(Rng* rng, std::size_t dim) {
  Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng->NextDouble() - 0.5);
  return v;
}

/// The sparse row of a dense test vector: its non-zero entries (±0
/// dropped) at its dimension. The posting-list store and RetrievalIndex
/// take rows; their dense oracle, VectorStore, takes the vector itself.
SparseRow Sparse(const Vector& v) {
  SparseRow row;
  row.dimension = static_cast<std::uint32_t>(v.size());
  for (std::size_t d = 0; d < v.size(); ++d) {
    if (v[d] == 0.0f) continue;
    row.dims.push_back(static_cast<std::uint16_t>(d));
    row.values.push_back(v[d]);
  }
  return row;
}

void ExpectBitIdentical(const std::vector<Hit>& actual,
                        const std::vector<Hit>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].index, expected[i].index) << "rank " << i;
    // Bit-identical, not approximately equal: same kernel, same sums,
    // and the same sign of zero.
    EXPECT_EQ(std::memcmp(&actual[i].score, &expected[i].score,
                          sizeof(double)),
              0)
        << "rank " << i << ": " << actual[i].score << " vs "
        << expected[i].score;
  }
}

TEST(FlatStoreEquivalence, RandomizedAgainstNaiveReference) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    for (std::size_t dim : {3u, 17u, 64u, 512u}) {
      for (std::size_t n : {0u, 1u, 2u, 257u}) {
        Rng rng(seed * 1000 + dim * 10 + n);
        std::vector<Vector> raw;
        VectorStore store;
        for (std::size_t i = 0; i < n; ++i) {
          raw.push_back(RandomVector(&rng, dim));
          store.Add(raw.back());
        }
        Vector query = RandomVector(&rng, dim);
        for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                              n, n + 7}) {
          ExpectBitIdentical(store.TopK(query, k), NaiveTopK(raw, query, k));
        }
      }
    }
  }
}

TEST(FlatStoreEquivalence, DuplicateVectorsTieBreakByInsertionIndex) {
  Rng rng(5);
  std::vector<Vector> raw;
  VectorStore store;
  Vector dup = RandomVector(&rng, 32);
  for (int i = 0; i < 50; ++i) {
    // Every third vector is the same: plenty of exact score ties.
    raw.push_back(i % 3 == 0 ? dup : RandomVector(&rng, 32));
    store.Add(raw.back());
  }
  Vector query = dup;
  std::vector<Hit> hits = store.TopK(query, 20);
  ExpectBitIdentical(hits, NaiveTopK(raw, query, 20));
  // The duplicates all score exactly 1 and must appear in insertion order.
  for (std::size_t i = 1; i + 1 < hits.size(); ++i) {
    if (hits[i].score == hits[i - 1].score) {
      EXPECT_LT(hits[i - 1].index, hits[i].index);
    }
  }
}

TEST(FlatStoreEquivalence, ZeroVectorsScoreZeroAndRankDeterministically) {
  Rng rng(13);
  std::vector<Vector> raw;
  VectorStore store;
  for (int i = 0; i < 20; ++i) {
    raw.push_back(i % 4 == 0 ? Vector(16, 0.0f) : RandomVector(&rng, 16));
    store.Add(raw.back());
  }
  Vector query = RandomVector(&rng, 16);
  ExpectBitIdentical(store.TopK(query, 20), NaiveTopK(raw, query, 20));
  // A zero query scores 0 against everything; order is pure index order.
  std::vector<Hit> zero_hits = store.TopK(Vector(16, 0.0f), 5);
  ASSERT_EQ(zero_hits.size(), 5u);
  for (std::size_t i = 0; i < zero_hits.size(); ++i) {
    EXPECT_EQ(zero_hits[i].index, i);
    EXPECT_EQ(zero_hits[i].score, 0.0);
  }
}

TEST(FlatStoreEquivalence, MixedDimensionsFollowCosineContract) {
  // Rows whose dimension differs from the query score exactly 0 — the
  // seed silently dotted the query against each vector's prefix.
  std::vector<Vector> raw = {{1.0f, 0.0f}, {1.0f, 0.0f, 0.0f}, {0.5f, 0.5f}};
  VectorStore store;
  for (const Vector& v : raw) store.Add(v);
  Vector query = {1.0f, 0.0f};
  ExpectBitIdentical(store.TopK(query, 3), NaiveTopK(raw, query, 3));
  std::vector<Hit> hits = store.TopK(query, 3);
  ASSERT_EQ(hits.size(), 3u);
  for (const Hit& hit : hits) {
    if (hit.index == 1) {
      EXPECT_EQ(hit.score, 0.0);  // dim 3 vs dim 2
    }
  }
}

TEST(FlatStoreEquivalence, DotBlockedMatchesSequentialSum) {
  // The blocked kernel reassociates four double partial sums; for unit
  // vectors that is within ~1e-15 of the seed's strictly sequential sum.
  Rng rng(33);
  for (std::size_t dim : {1u, 5u, 16u, 511u, 512u}) {
    Vector a = RandomVector(&rng, dim);
    Vector b = RandomVector(&rng, dim);
    L2Normalize(&a);
    L2Normalize(&b);
    double sequential = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      sequential += static_cast<double>(a[i]) * b[i];
    }
    EXPECT_NEAR(DotBlocked(a.data(), b.data(), dim), sequential, 1e-12);
  }
}

TEST(FlatStoreEquivalence, IvfProbeAllIsBitIdenticalToExactStore) {
  IvfIndex::Options options;
  options.num_clusters = 6;
  options.num_probes = 6;  // probe everything -> exact
  IvfIndex index(options);
  VectorStore exact;
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    Vector v = RandomVector(&rng, 24);
    index.Add(v);
    exact.Add(v);
  }
  index.Build();
  for (int qi = 0; qi < 10; ++qi) {
    Vector q = RandomVector(&rng, 24);
    ExpectBitIdentical(index.TopK(q, 15), exact.TopK(q, 15));
  }
}

TEST(IvfEquivalence, QuantizedScanProbeAllMatchesExactStore) {
  // IVF with quantized list scans, probing every cluster: the shortlist
  // covers everything the exact scan sees, so after the exact re-rank
  // the result must be bit-identical to the brute-force store.
  IvfIndex::Options options;
  options.num_clusters = 6;
  options.num_probes = 6;
  options.quantized_scan = true;
  IvfIndex index(options);
  VectorStore exact;
  Rng rng(87);
  for (int i = 0; i < 300; ++i) {
    Vector v = RandomVector(&rng, 24);
    index.Add(v);
    exact.Add(v);
  }
  index.Build();
  for (int qi = 0; qi < 10; ++qi) {
    Vector q = RandomVector(&rng, 24);
    ExpectBitIdentical(index.TopK(q, 15), exact.TopK(q, 15));
  }
}

/// An IVF index that probes every cluster and scans its lists over int8
/// codes: the one path that still runs QuantizedVectors, and one whose
/// widened shortlist re-rank must return the exact store's hits.
IvfIndex ProbeAllInt8Ivf() {
  IvfIndex::Options options;
  options.num_clusters = 4;
  options.num_probes = 4;
  options.quantized_scan = true;
  return IvfIndex(options);
}

TEST(IvfEquivalence, ProbeAllInt8ScanMatchesExactOnSeedCorpus) {
  // The int8 scan's promise: on the benchmark's own NLQ distribution,
  // the widened-shortlist re-rank returns *bit-identical* hits to the
  // exact scan — same indexes, same order, same float-kernel scores.
  // The run here is the ANN differential smoke scripts/tier1.sh drives
  // under ASan+UBSan.
  dataset::BenchmarkOptions options;
  options.train_size = 600;
  options.test_size = 60;
  dataset::BenchmarkSuite suite = dataset::BuildBenchmarkSuite(options);
  SemanticHashEmbedder embedder;
  IvfIndex index = ProbeAllInt8Ivf();
  VectorStore store;
  for (const dataset::Example& ex : suite.train) {
    Vector v = Densify(embedder.Embed(ex.nlq));
    index.Add(v);
    store.Add(std::move(v));
  }
  index.Build();
  const std::size_t k = 10;
  for (const dataset::Example& ex : suite.test_nlq) {
    Vector q = Densify(
        embedder.Embed(ex.nlq_rob.empty() ? ex.nlq : ex.nlq_rob));
    ExpectBitIdentical(index.TopK(q, k), store.TopK(q, k));
  }
}

TEST(IvfEquivalence, RandomizedProbeAllInt8ScanMatchesExact) {
  Rng rng(71);
  for (std::size_t n : {std::size_t{1}, std::size_t{50}, std::size_t{400}}) {
    IvfIndex index = ProbeAllInt8Ivf();
    VectorStore store;
    for (std::size_t i = 0; i < n; ++i) {
      Vector v = RandomVector(&rng, 64);
      index.Add(v);
      store.Add(std::move(v));
    }
    index.Build();
    for (int qi = 0; qi < 10; ++qi) {
      Vector q = RandomVector(&rng, 64);
      for (std::size_t k : {std::size_t{1}, std::size_t{10}, n}) {
        ExpectBitIdentical(index.TopK(q, k), store.TopK(q, k));
      }
    }
  }
}

TEST(IvfEquivalence, DegenerateInputs) {
  IvfIndex::Options options;
  options.num_clusters = 2;
  options.num_probes = 2;
  options.quantized_scan = true;
  IvfIndex index(options);
  EXPECT_TRUE(index.TopK({1.0f, 0.0f}, 5).empty());  // unbuilt
  index.Build();
  EXPECT_TRUE(index.TopK({1.0f, 0.0f}, 5).empty());  // built but empty

  index.Add({1.0f, 0.0f});
  index.Add(Vector(2, 0.0f));  // all-zero vector
  index.Add({0.0f, 1.0f});
  index.Build();
  EXPECT_TRUE(index.TopK({1.0f, 0.0f}, 0).empty());  // k = 0

  std::vector<Hit> mismatched = index.TopK({1.0f, 0.0f, 0.0f}, 3);
  ASSERT_EQ(mismatched.size(), 3u);  // dim mismatch: all zeros, index order
  for (std::size_t i = 0; i < mismatched.size(); ++i) {
    EXPECT_EQ(mismatched[i].index, i);
    EXPECT_EQ(mismatched[i].score, 0.0);
  }

  std::vector<Hit> zero = index.TopK(Vector(2, 0.0f), 3);
  ASSERT_EQ(zero.size(), 3u);
  for (const Hit& hit : zero) EXPECT_EQ(hit.score, 0.0);
}

TEST(RetrievalIndexFacade, ExactBackendBitIdenticalToVectorStore) {
  RetrievalConfig config;  // default: exact
  RetrievalIndex facade(config);
  VectorStore store;
  Rng rng(91);
  for (int i = 0; i < 150; ++i) {
    Vector v = RandomVector(&rng, 32);
    facade.Add(Sparse(v));
    store.Add(v);
  }
  facade.Seal();
  for (int qi = 0; qi < 8; ++qi) {
    Vector q = RandomVector(&rng, 32);
    ExpectBitIdentical(facade.TopK(Sparse(q), 12), store.TopK(q, 12));
  }
}

TEST(RetrievalIndexFacade, AllBackendsReturnExactScoresAndAgreeHere) {
  // On a small library the IVF shortlist covers the whole store, so both
  // backends must agree bit-for-bit (scores are always exact-kernel
  // scores by the re-rank contract).
  Rng rng(93);
  std::vector<Vector> vectors;
  for (int i = 0; i < 120; ++i) vectors.push_back(RandomVector(&rng, 16));
  std::vector<RetrievalIndex> indexes;
  for (RetrievalBackend backend :
       {RetrievalBackend::kExact, RetrievalBackend::kIvf}) {
    RetrievalConfig config;
    config.backend = backend;
    config.ivf.num_clusters = 4;
    config.ivf.num_probes = 4;  // probe everything
    config.ivf.quantized_scan = true;
    indexes.emplace_back(config);
  }
  for (RetrievalIndex& index : indexes) {
    for (const Vector& v : vectors) index.Add(Sparse(v));
    index.Seal();
    EXPECT_EQ(index.size(), vectors.size());
  }
  for (int qi = 0; qi < 8; ++qi) {
    Vector q = RandomVector(&rng, 16);
    const SparseRow row = Sparse(q);
    ExpectBitIdentical(indexes[1].TopK(row, 10), indexes[0].TopK(row, 10));
  }
}

TEST(RetrievalIndexFacade, AddAfterSealStaysRetrievableOnEveryBackend) {
  for (RetrievalBackend backend :
       {RetrievalBackend::kExact, RetrievalBackend::kIvf}) {
    RetrievalConfig config;
    config.backend = backend;
    config.ivf.num_clusters = 2;
    config.ivf.num_probes = 2;
    RetrievalIndex index(config);
    index.Add(Sparse({1.0f, 0.0f}));
    index.Add(Sparse({0.7f, 0.7f}));
    index.Seal();
    index.Add(Sparse({0.0f, 1.0f}));  // post-seal insert
    std::vector<Hit> hits = index.TopK(Sparse({0.0f, 1.0f}), 1);
    ASSERT_EQ(hits.size(), 1u)
        << RetrievalBackendName(backend);
    EXPECT_EQ(hits[0].index, 2u) << RetrievalBackendName(backend);
  }
}

TEST(RetrievalIndexFacade, BackendNamesAreStable) {
  EXPECT_STREQ(RetrievalBackendName(RetrievalBackend::kExact), "exact");
  EXPECT_STREQ(RetrievalBackendName(RetrievalBackend::kIvf), "ivf");
}

TEST(RetrievalConfigDeathTest, UnknownBackendExitsTwo) {
  // The retired int8 "quantized" backend is now an invalid value like
  // any other typo.
  const char* kVar = "GRED_RETRIEVAL_BACKEND";
  const char* saved = std::getenv(kVar);
  const std::string restore = saved != nullptr ? saved : "";
  for (const char* bad : {"quantized", "dense", ""}) {
    setenv(kVar, bad, /*overwrite=*/1);
    EXPECT_EXIT((void)RetrievalConfig::FromEnv(),
                ::testing::ExitedWithCode(2), "GRED_RETRIEVAL_BACKEND")
        << "'" << bad << "'";
  }
  if (saved != nullptr) {
    setenv(kVar, restore.c_str(), /*overwrite=*/1);
  } else {
    unsetenv(kVar);
  }
}

/// A vector with roughly `density` of its entries non-zero, like the
/// hash embedders' output. Half of the zero entries are -0.0f, so the
/// signed-zero argument of the posting-list walk is exercised too.
Vector RandomSparseVector(Rng* rng, std::size_t dim, double density) {
  Vector v(dim);
  for (float& x : v) {
    if (rng->NextBool(density)) {
      x = static_cast<float>(rng->NextDouble() - 0.5);
    } else {
      x = rng->NextBool(0.5) ? -0.0f : 0.0f;
    }
  }
  return v;
}

/// The posting-list exact backend against the dense oracle it replaces.
void ExpectExactMatchesDense(const RetrievalIndex& index,
                             const VectorStore& dense, const Vector& query,
                             std::size_t k) {
  ExpectBitIdentical(index.TopK(Sparse(query), k), dense.TopK(query, k));
}

TEST(PostingListEquivalence, RandomizedSparseMatchesDenseScanBitForBit) {
  // Dimension 30 leaves a two-dimension tail that DotBlocked folds into
  // lane 0; 512 is the embedders' dimension.
  for (std::uint64_t seed : {3u, 11u}) {
    for (std::size_t dim : {30u, 512u}) {
      for (double density : {0.05, 0.2, 1.0}) {
        for (std::size_t n : {0u, 1u, 2u, 257u}) {
          Rng rng(seed * 7919 + dim * 31 + n +
                  static_cast<std::uint64_t>(density * 100));
          RetrievalIndex index;
          VectorStore dense;
          for (std::size_t i = 0; i < n; ++i) {
            Vector v = RandomSparseVector(&rng, dim, density);
            index.Add(Sparse(v));
            dense.Add(v);
          }
          index.Seal();
          ASSERT_EQ(index.size(), n);
          for (int qi = 0; qi < 4; ++qi) {
            Vector query = RandomSparseVector(&rng, dim, density);
            for (std::size_t k : {std::size_t{0}, std::size_t{1},
                                  std::size_t{10}, n, n + 7}) {
              ExpectExactMatchesDense(index, dense, query, k);
            }
          }
        }
      }
    }
  }
}

TEST(PostingListEquivalence, MixedDimensionRowsScoreZero) {
  // Rows whose dimension differs from the query's share the low posting
  // lists with the matching rows but must still score exactly 0.
  Rng rng(29);
  RetrievalIndex index;
  VectorStore dense;
  const std::size_t dims[] = {30, 31, 512, 29, 30, 4, 512};
  for (int i = 0; i < 140; ++i) {
    Vector v = RandomSparseVector(&rng, dims[i % 7], 0.3);
    index.Add(Sparse(v));
    dense.Add(v);
  }
  index.Seal();
  for (std::size_t dim : {4u, 29u, 30u, 31u, 512u, 7u, 600u}) {
    Vector query = RandomSparseVector(&rng, dim, 0.5);
    ExpectExactMatchesDense(index, dense, query, 140);
    ExpectExactMatchesDense(index, dense, query, 10);
  }
  ExpectExactMatchesDense(index, dense, Vector{}, 10);  // empty query
}

TEST(PostingListEquivalence, ZeroDuplicateAndDegenerateInputs) {
  RetrievalIndex empty;
  empty.Seal();
  EXPECT_TRUE(empty.TopK(Sparse({1.0f, 0.0f}), 5).empty());
  EXPECT_TRUE(empty.TopK(Sparse({}), 5).empty());

  Rng rng(41);
  RetrievalIndex index;
  VectorStore dense;
  const Vector dup = RandomSparseVector(&rng, 64, 0.2);
  for (int i = 0; i < 60; ++i) {
    Vector v = i % 5 == 0   ? Vector(64, 0.0f)
               : i % 3 == 0 ? dup
                            : RandomSparseVector(&rng, 64, 0.2);
    index.Add(Sparse(v));
    dense.Add(v);
  }
  index.Seal();
  for (const Vector& query :
       {dup, Vector(64, 0.0f), Vector(64, -0.0f),
        RandomSparseVector(&rng, 64, 0.2)}) {
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{20},
                          std::size_t{60}, std::size_t{1000}}) {
      ExpectExactMatchesDense(index, dense, query, k);
    }
  }
  // The duplicates tie at the top and come back in insertion order.
  std::vector<Hit> hits = index.TopK(Sparse(dup), 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].index, 3u);
  EXPECT_EQ(hits[1].index, 6u);
  EXPECT_EQ(hits[2].index, 9u);
}

TEST(PostingListEquivalence, AddAfterSealMatchesDenseScanAtEveryStep) {
  // Every post-seal Add grows the lists and the per-thread scratch; the
  // next query must already see the new row, bit for bit.
  Rng rng(57);
  RetrievalIndex index;
  VectorStore dense;
  for (int i = 0; i < 40; ++i) {
    Vector v = RandomSparseVector(&rng, 30, 0.3);
    index.Add(Sparse(v));
    dense.Add(v);
  }
  index.Seal();
  for (int i = 0; i < 80; ++i) {
    Vector v = RandomSparseVector(&rng, 30, 0.3);
    EXPECT_EQ(index.Add(Sparse(v)), dense.Add(v));
    ExpectExactMatchesDense(index, dense, v, 10);
    ExpectExactMatchesDense(index, dense, RandomSparseVector(&rng, 30, 0.3),
                            5);
  }
}

TEST(PostingListEquivalence, ScratchIsSharedSafelyAcrossStoresOfEverySize) {
  // One thread alternates between a large and a small store, so the
  // reused accumulators change layout between consecutive queries.
  Rng rng(61);
  PostingListStore large;
  PostingListStore small;
  VectorStore large_dense;
  VectorStore small_dense;
  for (int i = 0; i < 500; ++i) {
    Vector v = RandomSparseVector(&rng, 48, 0.2);
    large.Add(Sparse(v));
    large_dense.Add(v);
    if (i % 9 == 0) {
      small.Add(Sparse(v));
      small_dense.Add(v);
    }
  }
  for (int qi = 0; qi < 20; ++qi) {
    Vector q = RandomSparseVector(&rng, 48, 0.2);
    ExpectBitIdentical(large.TopK(Sparse(q), 10), large_dense.TopK(q, 10));
    ExpectBitIdentical(small.TopK(Sparse(q), 10), small_dense.TopK(q, 10));
  }
}

TEST(PostingListEquivalence, DefaultSuiteNlqAndDvqLibrariesMatchDenseScan) {
  // The served libraries: every test_clean/test_nlq NLQ against the NLQ
  // library and every gold DVQ against the DVQ library, embedded by the
  // real SemanticHashEmbedder at the default suite size.
  dataset::BenchmarkSuite suite =
      dataset::BuildBenchmarkSuite(dataset::BenchmarkOptions{});
  SemanticHashEmbedder embedder;
  RetrievalIndex nlq_index;
  RetrievalIndex dvq_index;
  VectorStore nlq_dense;
  VectorStore dvq_dense;
  for (const dataset::Example& ex : suite.train) {
    const SparseRow nlq = embedder.Embed(ex.nlq);
    const SparseRow dvq = embedder.Embed(ex.DvqText());
    nlq_index.Add(nlq);
    nlq_dense.Add(Densify(nlq));
    dvq_index.Add(dvq);
    dvq_dense.Add(Densify(dvq));
  }
  nlq_index.Seal();
  dvq_index.Seal();
  std::size_t queries = 0;
  for (const std::vector<dataset::Example>* split :
       {&suite.test_clean, &suite.test_nlq}) {
    for (const dataset::Example& ex : *split) {
      const SparseRow nlq = embedder.Embed(ex.nlq);
      const SparseRow dvq = embedder.Embed(ex.DvqText());
      ExpectBitIdentical(nlq_index.TopK(nlq, 10),
                         nlq_dense.TopK(Densify(nlq), 10));
      ExpectBitIdentical(dvq_index.TopK(dvq, 10),
                         dvq_dense.TopK(Densify(dvq), 10));
      ++queries;
      if (HasFailure()) return;  // one diverging query is enough to read
    }
  }
  EXPECT_EQ(queries, suite.test_clean.size() + suite.test_nlq.size());
}

// The bound-pruned search (posting_list_store.h): the cases below aim
// at the score bound, its slack and the rescore stop test. Each compares
// the store bit for bit against the dense VectorStore::TopK.

/// Adds `rows` to a fresh store and to its dense oracle, then seals the
/// store.
void BuildSealed(const std::vector<Vector>& rows, PostingListStore* store,
                 VectorStore* dense) {
  for (const Vector& v : rows) {
    store->Add(Sparse(v));
    dense->Add(v);
  }
  store->Seal();
}

/// A row whose first `heavy` dimensions are set (so in a store of such
/// rows they are heavy) plus sparse random light entries.
Vector RowWithHeavyPrefix(Rng* rng, std::size_t dim, std::size_t heavy,
                          double light_density) {
  Vector v = RandomSparseVector(rng, dim, light_density);
  for (std::size_t d = 0; d < heavy; ++d) {
    v[d] = static_cast<float>(rng->NextDouble() + 0.05);
  }
  return v;
}

TEST(PostingListEquivalence, AllHeavyQueryHasZeroLightBound) {
  // Dimensions 0..7 are set in every row; the queries touch only them,
  // so the light walk adds nothing and each bound is the Cauchy–Schwarz
  // term alone. Copies of the query make that term tight: its rounding
  // is all that separates their bound from their score.
  Rng rng(83);
  constexpr std::size_t kDim = 64;
  std::vector<Vector> queries;
  for (int i = 0; i < 6; ++i) {
    Vector q(kDim, 0.0f);
    for (std::size_t d = 0; d < 8; ++d) {
      q[d] = static_cast<float>(rng.NextDouble() + 0.05);
    }
    queries.push_back(q);
  }
  std::vector<Vector> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(i % 10 == 3 ? queries[rng.NextIndex(queries.size())]
                               : RowWithHeavyPrefix(&rng, kDim, 8, 0.1));
  }
  PostingListStore store;
  VectorStore dense;
  BuildSealed(rows, &store, &dense);
  for (const Vector& q : queries) {
    for (std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{40}}) {
      ExpectBitIdentical(store.TopK(Sparse(q), k), dense.TopK(q, k));
    }
  }
}

TEST(PostingListEquivalence, TiesAtKthScoreStraddleTheCandidateCut) {
  // Two rows with the same DotBlocked score but differently rounded
  // bounds: the second is the first with lanes 0 and 1 swapped, against
  // a query equal on those lanes, so the lane sums only trade places.
  // Entries are multiples of 1/64, whose squared norm is exact, so both
  // rows normalize by the same factor. Whichever row has the higher
  // bound is rescored first and sets the k-th score; the other ties it
  // and must still be rescored, since the lower index wins the tie.
  // Zero filler rows make every dimension light; without them every
  // dimension is heavy.
  Rng rng(97);
  constexpr std::size_t kDim = 16;
  for (int trial = 0; trial < 300; ++trial) {
    Vector q(kDim);
    Vector row(kDim);
    for (std::size_t d = 0; d < kDim; ++d) {
      q[d] = d % 4 == 1 ? q[d - 1] : static_cast<float>(rng.NextDouble());
      row[d] = static_cast<float>(1 + rng.NextIndex(64)) / 64.0f;
    }
    Vector swapped = row;
    for (std::size_t d = 0; d < kDim; d += 4) {
      std::swap(swapped[d], swapped[d + 1]);
    }
    for (std::size_t fillers : {0u, 3u}) {
      for (bool swapped_first : {false, true}) {
        std::vector<Vector> rows = {swapped_first ? swapped : row,
                                    swapped_first ? row : swapped};
        rows.resize(2 + fillers, Vector(kDim, 0.0f));
        PostingListStore store;
        VectorStore dense;
        BuildSealed(rows, &store, &dense);
        const std::vector<Hit> tied = dense.TopK(q, 2);
        ASSERT_EQ(tied[0].score, tied[1].score);  // the construction ties
        for (std::size_t k : {std::size_t{1}, std::size_t{2}}) {
          ExpectBitIdentical(store.TopK(Sparse(q), k), dense.TopK(q, k));
        }
      }
    }
    if (HasFailure()) return;
  }
}

TEST(PostingListEquivalence, StopTestLooksAtEachCandidatesOwnBound) {
  // Dimension 0 is heavy (the four-dimensional filler rows set it but
  // score 0 against a three-dimensional query); 1 and 2 are light. With
  // one heavy dimension the bound is tight when a row's entry there has
  // the query's sign and loose when it has the other sign. By bound the
  // order is: a seed (bound 1.0, score 0.28), a loose row (0.97, 0.49),
  // the answer (tight, 0.74) and a row (tight, 0.4) whose bound is below
  // the loose row's score. Once the loose row has raised the k-th score,
  // the answer must still be rescored, although the row after it may not.
  const Vector q = {0.6f, 0.8f, 0.0f};
  std::vector<Vector> rows = {{-0.6f, 0.8f, 0.0f},
                              {-0.4f, 0.9165f, 0.0f},
                              {0.3f, 0.7f, 0.648f},
                              {0.0f, 0.5f, 0.866f}};
  rows.resize(9, Vector{1.0f, 0.0f, 0.0f, 0.0f});
  PostingListStore store;
  VectorStore dense;
  BuildSealed(rows, &store, &dense);
  const std::vector<Hit> hits = store.TopK(Sparse(q), 1);
  ExpectBitIdentical(hits, dense.TopK(q, 1));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].index, 2u);
}

TEST(PostingListEquivalence, DuplicateRowsTiedAcrossTheKthRank) {
  // Runs of identical rows whose tie spans rank k: the cut must take the
  // run's lowest indexes, wherever the run starts.
  Rng rng(101);
  constexpr std::size_t kDim = 48;
  std::vector<Vector> rows;
  std::vector<Vector> runs;
  for (int i = 0; i < 4; ++i) {
    runs.push_back(RowWithHeavyPrefix(&rng, kDim, 4, 0.2));
  }
  for (int i = 0; i < 200; ++i) {
    rows.push_back(i % 4 == 0 ? runs[(i / 4) % runs.size()]
                              : RowWithHeavyPrefix(&rng, kDim, 4, 0.2));
  }
  PostingListStore store;
  VectorStore dense;
  BuildSealed(rows, &store, &dense);
  for (const Vector& q : runs) {
    for (std::size_t k = 1; k <= 16; ++k) {
      ExpectBitIdentical(store.TopK(Sparse(q), k), dense.TopK(q, k));
    }
  }
}

TEST(PostingListEquivalence, KBeyondPositiveRowsReturnsZeroAndNegative) {
  // Few rows overlap the query positively; the rest score 0 (disjoint,
  // zero or of another dimension) or below it (the query negated). A k
  // past the positive rows drives the k-th score to 0 and below.
  Rng rng(103);
  constexpr std::size_t kDim = 32;
  const Vector q = RandomSparseVector(&rng, kDim, 0.3);
  Vector negated = q;
  for (float& x : negated) x = -x;
  std::vector<Vector> rows;
  for (int i = 0; i < 60; ++i) {
    switch (i % 5) {
      case 0: rows.push_back(q); break;
      case 1: rows.push_back(negated); break;
      case 2: rows.push_back(Vector(kDim, 0.0f)); break;
      case 3: rows.push_back(RandomSparseVector(&rng, kDim + 1, 0.3)); break;
      default: rows.push_back(RandomSparseVector(&rng, kDim, 0.3)); break;
    }
  }
  PostingListStore store;
  VectorStore dense;
  BuildSealed(rows, &store, &dense);
  for (std::size_t k : {std::size_t{12}, std::size_t{30}, std::size_t{59},
                        std::size_t{60}, std::size_t{90}}) {
    ExpectBitIdentical(store.TopK(Sparse(q), k), dense.TopK(q, k));
  }
  const std::vector<Hit> all = store.TopK(Sparse(q), 60);
  EXPECT_EQ(all[30].score, 0.0);
  EXPECT_LT(all.back().score, 0.0);
}

TEST(PostingListEquivalence, MixedDimensionRowsShareHeavyDims) {
  // Rows of four dimensions all set dimensions 0..5, which go heavy; a
  // query of one dimension must bound and score the others as exactly 0.
  Rng rng(107);
  const std::size_t dims[] = {16, 20, 32, 33};
  std::vector<Vector> rows;
  for (int i = 0; i < 160; ++i) {
    rows.push_back(RowWithHeavyPrefix(&rng, dims[i % 4], 6, 0.25));
  }
  PostingListStore store;
  VectorStore dense;
  BuildSealed(rows, &store, &dense);
  for (std::size_t dim : dims) {
    for (int qi = 0; qi < 3; ++qi) {
      const Vector q = RowWithHeavyPrefix(&rng, dim, 6, 0.25);
      for (std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{45},
                            std::size_t{160}}) {
        ExpectBitIdentical(store.TopK(Sparse(q), k), dense.TopK(q, k));
      }
    }
  }
}

TEST(PostingListEquivalence, AddAfterSealIntoHeavyDims) {
  // Rows added after Seal keep its light/heavy split: their heavy
  // entries count only through their heavy norm. The late rows put most
  // of their mass on the heavy dims and on a dimension Seal never saw.
  Rng rng(109);
  std::vector<Vector> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(RowWithHeavyPrefix(&rng, 40, 6, 0.15));
  }
  PostingListStore store;
  VectorStore dense;
  BuildSealed(rows, &store, &dense);
  for (int i = 0; i < 60; ++i) {
    Vector v = RowWithHeavyPrefix(&rng, 40, 6, 0.05);
    for (std::size_t d = 0; d < 6; ++d) v[d] *= 4.0f;
    if (i % 7 == 0) v.resize(44, 0.5f);
    EXPECT_EQ(store.Add(Sparse(v)), dense.Add(v));
    for (const Vector& q : {v, RowWithHeavyPrefix(&rng, v.size(), 6, 0.1)}) {
      ExpectBitIdentical(store.TopK(Sparse(q), 1), dense.TopK(q, 1));
      ExpectBitIdentical(store.TopK(Sparse(q), 8), dense.TopK(q, 8));
    }
  }
}

TEST(PostingListEquivalence, SealTwiceReDecidesTheSplit) {
  // A second Seal over the same rows changes nothing; after Adds that
  // turn light dimensions heavy, it re-decides the split.
  Rng rng(113);
  std::vector<Vector> rows;
  for (int i = 0; i < 80; ++i) {
    rows.push_back(RowWithHeavyPrefix(&rng, 24, 3, 0.2));
  }
  PostingListStore store;
  VectorStore dense;
  BuildSealed(rows, &store, &dense);
  std::vector<Vector> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(RowWithHeavyPrefix(&rng, 24, 3, 0.3));
  }
  std::vector<std::vector<Hit>> first;
  for (const Vector& q : queries) first.push_back(store.TopK(Sparse(q), 10));
  store.Seal();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ExpectBitIdentical(store.TopK(Sparse(queries[i]), 10), first[i]);
  }
  for (int i = 0; i < 120; ++i) {
    const Vector v = RowWithHeavyPrefix(&rng, 24, 12, 0.2);
    store.Add(Sparse(v));
    dense.Add(v);
  }
  for (int seal = 0; seal < 2; ++seal) {
    store.Seal();
    for (const Vector& q : queries) {
      ExpectBitIdentical(store.TopK(Sparse(q), 10), dense.TopK(q, 10));
    }
  }
}

TEST(PostingListEquivalence, UnsealedStoreMatchesDenseScan) {
  // Before Seal no dimension has a posting list: every bound is the
  // Cauchy–Schwarz term over the whole row, and the same search rescores
  // its way to the exact answer.
  Rng rng(127);
  PostingListStore store;
  VectorStore dense;
  for (int i = 0; i < 120; ++i) {
    const Vector v = RandomSparseVector(&rng, 30, 0.2);
    EXPECT_EQ(store.Add(Sparse(v)), dense.Add(v));
  }
  for (int qi = 0; qi < 8; ++qi) {
    const Vector q = RandomSparseVector(&rng, 30, 0.2);
    for (std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{200}}) {
      ExpectBitIdentical(store.TopK(Sparse(q), k), dense.TopK(q, k));
    }
  }
}

/// A random sparse row as a producer other than the embedders may build
/// it: ascending dims, unnormalized non-zero values.
SparseRow RandomSparseRow(Rng* rng, std::uint32_t dimension, double density) {
  SparseRow row;
  row.dimension = dimension;
  for (std::uint32_t d = 0; d < dimension; ++d) {
    if (!rng->NextBool(density)) continue;
    const float x = static_cast<float>(rng->NextDouble() - 0.5);
    row.dims.push_back(static_cast<std::uint16_t>(d));
    row.values.push_back(x != 0.0f ? x : 0.5f);
  }
  return row;
}

TEST(PostingListEquivalence, SparseRowsMatchDenseAdds) {
  // The store takes rows as they come and normalizes over their
  // non-zeros; the dense oracle gets the densified rows and normalizes
  // all of their floats. Every answer must agree bit for bit, across
  // mixed-dimension rows, before and after Seal, and for queries of a
  // dimension no row has.
  Rng rng(131);
  const std::uint32_t dims[] = {30, 512, 31, 7, 512, 30};
  PostingListStore store;
  VectorStore dense;
  for (int i = 0; i < 240; ++i) {
    const double density = i % 3 == 0 ? 0.6 : 0.15;
    const SparseRow row = RandomSparseRow(&rng, dims[i % 6], density);
    EXPECT_EQ(store.Add(row), dense.Add(Densify(row)));
  }
  std::vector<SparseRow> queries;
  for (std::uint32_t dim : {7u, 30u, 31u, 512u, 45u, 600u}) {
    queries.push_back(RandomSparseRow(&rng, dim, 0.3));
  }
  queries.push_back(SparseRow{{}, {}, 512});  // no non-zeros
  queries.push_back(SparseRow{});              // dimension 0
  for (int sealed = 0; sealed < 2; ++sealed) {
    for (const SparseRow& q : queries) {
      for (std::size_t k : {std::size_t{1}, std::size_t{10},
                            std::size_t{240}}) {
        ExpectBitIdentical(store.TopK(q, k), dense.TopK(Densify(q), k));
      }
    }
    store.Seal();
  }
}

TEST(RetrievalIndexFacade, ConcurrentTopKOnSealedRealLibrary) {
  // Run under TSan by scripts/tier1.sh: threads sharing one sealed
  // exact index over a real NLQ library, each through its own per-row
  // scratch, must reproduce the dense scan bit for bit.
  dataset::BenchmarkOptions options;
  options.train_size = 1500;
  options.test_size = 40;
  const dataset::BenchmarkSuite suite = dataset::BuildBenchmarkSuite(options);
  SemanticHashEmbedder embedder;
  RetrievalIndex index;
  VectorStore dense;
  for (const dataset::Example& ex : suite.train) {
    const SparseRow row = embedder.Embed(ex.nlq);
    index.Add(row);
    dense.Add(Densify(row));
  }
  index.Seal();
  std::vector<SparseRow> queries;
  std::vector<std::vector<Hit>> expected;
  for (const dataset::Example& ex : suite.test_nlq) {
    queries.push_back(embedder.Embed(ex.nlq));
    expected.push_back(dense.TopK(Densify(queries.back()), 10));
  }
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::size_t qi =
            (i + static_cast<std::size_t>(t) * 7) % queries.size();
        const std::vector<Hit> hits = index.TopK(queries[qi], 10);
        bool same = hits.size() == expected[qi].size();
        for (std::size_t r = 0; same && r < hits.size(); ++r) {
          same = hits[r].index == expected[qi][r].index &&
                 std::memcmp(&hits[r].score, &expected[qi][r].score,
                             sizeof(double)) == 0;
        }
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(RetrievalIndexFacade, ConcurrentExactTopKMatchesSerialRun) {
  // Run under TSan by scripts/tier1.sh: many threads querying one sealed
  // exact index, each through its own per-thread accumulators, must
  // reproduce the serial answers bit for bit.
  Rng rng(73);
  RetrievalIndex index;
  for (int i = 0; i < 1500; ++i) {
    index.Add(Sparse(RandomSparseVector(&rng, 128, 0.2)));
  }
  index.Seal();
  std::vector<SparseRow> queries;
  std::vector<std::vector<Hit>> expected;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(Sparse(RandomSparseVector(&rng, 128, 0.2)));
    expected.push_back(index.TopK(queries.back(), 10));
  }
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          // Each thread walks the queries at a different phase.
          const std::size_t qi =
              (i + static_cast<std::size_t>(t) * 5) % queries.size();
          const std::vector<Hit> hits = index.TopK(queries[qi], 10);
          bool same = hits.size() == expected[qi].size();
          for (std::size_t r = 0; same && r < hits.size(); ++r) {
            same = hits[r].index == expected[qi][r].index &&
                   std::memcmp(&hits[r].score, &expected[qi][r].score,
                               sizeof(double)) == 0;
          }
          if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(CachingEmbedder, IdenticalToInnerEmbedder) {
  SemanticHashEmbedder plain;
  CachingEmbedder cached(std::make_unique<SemanticHashEmbedder>());
  const std::vector<std::string> texts = {
      "show the salary by department", "average price per category", "",
      "show the salary by department"};
  for (const std::string& text : texts) {
    EXPECT_EQ(cached.Embed(text), plain.Embed(text));
  }
  EXPECT_EQ(cached.dimension(), plain.dimension());
  CachingEmbedder::Stats stats = cached.stats();
  EXPECT_EQ(stats.hits + stats.misses, texts.size());
  EXPECT_GE(stats.hits, 1u);  // the repeated text
}

TEST(CachingEmbedder, ConcurrentHammerIsRaceFreeAndDeterministic) {
  // Run under TSan by scripts/tier1.sh: many threads embedding a small,
  // overlapping set of texts must race-freely agree with the uncached
  // embedder on every call.
  CachingEmbedder cached(std::make_unique<SemanticHashEmbedder>());
  SemanticHashEmbedder plain;
  std::vector<std::string> texts;
  std::vector<SparseRow> expected;
  for (int i = 0; i < 25; ++i) {
    texts.push_back("query number " + std::to_string(i) +
                    " about salary and department");
    expected.push_back(plain.Embed(texts.back()));
  }
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the texts at a different phase so hits and
        // misses interleave across shards.
        std::size_t i = static_cast<std::size_t>((round + t * 7)) %
                        texts.size();
        if (cached.Embed(texts[i]) != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  CachingEmbedder::Stats stats = cached.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kRounds);
  // Every distinct text misses at least once; concurrent first touches
  // may each miss (compute happens outside the lock), so misses can
  // exceed the distinct-text count but never the total.
  EXPECT_GE(stats.misses, texts.size());
  EXPECT_GT(stats.hits, 0u);
}

TEST(CachingEmbedder, ConcurrentSparseHitsMatchSerial) {
  // Run under TSan by scripts/tier1.sh: eight threads embed the NLQs and
  // DVQ texts of a small suite, each in its own rotation so first touches
  // and hits interleave. Every returned row must equal the serial
  // embedding, and every call must count exactly once, as a hit or a
  // miss.
  dataset::BenchmarkOptions options;
  options.train_size = 120;
  options.test_size = 20;
  const dataset::BenchmarkSuite suite = dataset::BuildBenchmarkSuite(options);
  std::vector<std::string> texts;
  for (const dataset::Example& ex : suite.train) {
    texts.push_back(ex.nlq);
    texts.push_back(ex.DvqText());
  }
  const SemanticHashEmbedder plain;
  std::vector<SparseRow> serial;
  for (const std::string& text : texts) serial.push_back(plain.Embed(text));

  const CachingEmbedder cached(std::make_unique<SemanticHashEmbedder>());
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 2;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < texts.size(); ++i) {
          const std::size_t j = (i + t * 37) % texts.size();
          if (cached.Embed(texts[j]) != serial[j]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  const CachingEmbedder::Stats stats = cached.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds * texts.size());
  EXPECT_GT(stats.hits, 0u);
  // Later calls find the rows resident and equal to the serial ones.
  for (std::size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(cached.Embed(texts[i]), serial[i]);
  }
}

// ---------------------------------------------------------------------------
// The training libraries (models/retrieval.h) fold rows with equal text
// into one retrieval row. Their hits must be those of a RetrievalIndex
// with one row per training example: the same training rows in the same
// order with the same score bits.
// ---------------------------------------------------------------------------

std::string NlqOf(const dataset::Example& ex) { return ex.nlq; }
std::string DvqOf(const dataset::Example& ex) { return ex.DvqText(); }

/// The row-per-example oracle: every training row's text embedded and
/// added in training order, on the exact backend.
void BuildRowPerExample(const std::vector<dataset::Example>& train,
                        const TextEmbedder& embedder,
                        std::string (*text_of)(const dataset::Example&),
                        RetrievalIndex* index) {
  for (const dataset::Example& ex : train) {
    index->Add(embedder.Embed(text_of(ex)));
  }
  index->Seal();
}

/// Compares a library's hits for `query` with the oracle's at `k`; each
/// library hit must also point at its own training row.
void ExpectLibraryMatchesOracle(const models::LibraryIndex& library,
                                const RetrievalIndex& oracle,
                                const TextEmbedder& embedder,
                                const std::vector<dataset::Example>& train,
                                const std::string& query, std::size_t k) {
  SCOPED_TRACE("k=" + std::to_string(k) + " query: " + query);
  std::vector<Hit> rows;
  for (const models::LibraryIndex::Hit& hit : library.TopK(query, k)) {
    ASSERT_LT(hit.index, train.size());
    EXPECT_EQ(hit.example, &train[hit.index]);
    rows.push_back(Hit{hit.index, hit.score});
  }
  ExpectBitIdentical(rows, oracle.TopK(embedder.Embed(query), k));
}

/// Maps every text to one of four unit rows by its FNV-1a hash, two of
/// them equal: different texts share rows, so distinct library rows tie
/// on score and their groups' members interleave across every rank.
class CollidingEmbedder : public TextEmbedder {
 public:
  SparseRow Embed(const std::string& text) const override {
    SparseRow row;
    row.dimension = 2;
    switch (Fnv1a64(text) % 4) {
      case 0:
      case 1:
        row.dims = {0};
        row.values = {1.0f};
        break;
      case 2:
        row.dims = {1};
        row.values = {1.0f};
        break;
      default:
        row.dims = {0, 1};
        row.values = {0.6f, 0.8f};
        break;
    }
    return row;
  }
  std::size_t dimension() const override { return 2; }
};

/// `rows` examples whose NLQs are drawn from `texts` distinct strings.
std::vector<dataset::Example> RepeatingNlqs(Rng* rng, std::size_t rows,
                                            std::size_t texts) {
  std::vector<dataset::Example> train(rows);
  for (dataset::Example& ex : train) {
    ex.nlq = "text " + std::to_string(rng->NextIndex(texts));
  }
  return train;
}

TEST(LibraryDedup, FoldsEqualTextsIntoOneRow) {
  Rng rng(5);
  const std::vector<dataset::Example> train = RepeatingNlqs(&rng, 60, 12);
  std::set<std::string> distinct;
  for (const dataset::Example& ex : train) distinct.insert(ex.nlq);
  const SemanticHashEmbedder embedder;
  const models::ExampleIndex index(&train, &embedder, RetrievalConfig{});
  EXPECT_EQ(index.size(), train.size());
  EXPECT_EQ(index.distinct_size(), distinct.size());
  // A text's exact match scores 1 and lists all its rows, ascending.
  const std::vector<models::ExampleIndex::Hit> hits =
      index.TopK(train[0].nlq, train.size());
  std::vector<std::size_t> want;
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (train[i].nlq == train[0].nlq) want.push_back(i);
  }
  ASSERT_GE(hits.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(hits[r].index, want[r]) << "rank " << r;
  }
}

TEST(LibraryDedup, TiedGroupsStraddlingRankKMatchRowPerExample) {
  const CollidingEmbedder embedder;
  Rng rng(11);
  const std::vector<dataset::Example> nlqs = RepeatingNlqs(&rng, 60, 12);
  const models::ExampleIndex nlq_index(&nlqs, &embedder, RetrievalConfig{});
  RetrievalIndex nlq_oracle;
  BuildRowPerExample(nlqs, embedder, &NlqOf, &nlq_oracle);
  ASSERT_LT(nlq_index.distinct_size(), nlqs.size());
  std::vector<std::string> queries = {"unseen 1", "unseen 2", "unseen 3"};
  for (std::size_t t = 0; t < 12; ++t) {
    queries.push_back("text " + std::to_string(t));
  }
  for (const std::string& query : queries) {
    for (std::size_t k = 0; k <= nlqs.size() + 1; ++k) {
      ExpectLibraryMatchesOracle(nlq_index, nlq_oracle, embedder, nlqs, query,
                                 k);
    }
  }

  // Real DVQ texts, which repeat on their own, under the same collisions.
  dataset::BenchmarkOptions options;
  options.train_size = 300;
  options.test_size = 20;
  const dataset::BenchmarkSuite suite = dataset::BuildBenchmarkSuite(options);
  const models::DvqIndex dvq_index(&suite.train, &embedder,
                                   RetrievalConfig{});
  RetrievalIndex dvq_oracle;
  BuildRowPerExample(suite.train, embedder, &DvqOf, &dvq_oracle);
  const std::size_t distinct = dvq_index.distinct_size();
  ASSERT_LT(distinct, suite.train.size());
  for (const dataset::Example& ex : suite.test_clean) {
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{10}, std::size_t{50},
                          distinct, distinct + 1, suite.train.size() + 1}) {
      ExpectLibraryMatchesOracle(dvq_index, dvq_oracle, embedder, suite.train,
                                 ex.DvqText(), k);
    }
  }
}

TEST(LibraryDedup, EmptyLibraryAndKZeroReturnNoHits) {
  const SemanticHashEmbedder embedder;
  const std::vector<dataset::Example> empty;
  const models::ExampleIndex no_nlqs(&empty, &embedder, RetrievalConfig{});
  const models::DvqIndex no_dvqs(&empty, &embedder, RetrievalConfig{});
  EXPECT_EQ(no_nlqs.size(), 0u);
  EXPECT_EQ(no_nlqs.distinct_size(), 0u);
  EXPECT_EQ(no_dvqs.size(), 0u);
  for (std::size_t k : {0, 1, 10}) {
    EXPECT_TRUE(no_nlqs.TopK("show a bar chart", k).empty());
    EXPECT_TRUE(no_dvqs.TopK("Visualize BAR SELECT a , b FROM t", k).empty());
  }
  Rng rng(3);
  const std::vector<dataset::Example> train = RepeatingNlqs(&rng, 20, 4);
  const models::ExampleIndex index(&train, &embedder, RetrievalConfig{});
  EXPECT_TRUE(index.TopK(train[0].nlq, 0).empty());
  EXPECT_EQ(index.TopK(train[0].nlq, 1).size(), 1u);
}

TEST(LibraryDedup, DefaultSuiteMatchesRowPerExampleIndex) {
  // Every distinct test NLQ of the four test splits against the NLQ
  // library, and every distinct gold DVQ against the DVQ library, at the
  // default suite size with the semantic embedder. A k beyond the
  // distinct rows ranks the whole library, so every 16th query runs it.
  const dataset::BenchmarkSuite suite =
      dataset::BuildBenchmarkSuite(dataset::BenchmarkOptions{});
  const SemanticHashEmbedder embedder;
  const models::ExampleIndex nlq_index(&suite.train, &embedder,
                                       RetrievalConfig{});
  const models::DvqIndex dvq_index(&suite.train, &embedder,
                                   RetrievalConfig{});
  RetrievalIndex nlq_oracle;
  RetrievalIndex dvq_oracle;
  BuildRowPerExample(suite.train, embedder, &NlqOf, &nlq_oracle);
  BuildRowPerExample(suite.train, embedder, &DvqOf, &dvq_oracle);
  ASSERT_LT(dvq_index.distinct_size(), suite.train.size());
  std::set<std::string> nlqs;
  std::set<std::string> dvqs;
  for (const std::vector<dataset::Example>* split :
       {&suite.test_clean, &suite.test_nlq, &suite.test_schema,
        &suite.test_both}) {
    for (const dataset::Example& ex : *split) {
      nlqs.insert(ex.nlq);
      dvqs.insert(ex.DvqText());
    }
  }
  const struct {
    const models::LibraryIndex* library;
    const RetrievalIndex* oracle;
    const std::set<std::string>* queries;
  } libraries[] = {{&nlq_index, &nlq_oracle, &nlqs},
                   {&dvq_index, &dvq_oracle, &dvqs}};
  for (const auto& lib : libraries) {
    std::size_t q = 0;
    for (const std::string& query : *lib.queries) {
      for (std::size_t k : {1, 3, 10}) {
        ExpectLibraryMatchesOracle(*lib.library, *lib.oracle, embedder,
                                   suite.train, query, k);
      }
      if (q++ % 16 == 0) {
        ExpectLibraryMatchesOracle(*lib.library, *lib.oracle, embedder,
                                   suite.train, query,
                                   lib.library->distinct_size() + 1);
      }
      if (HasFailure()) return;  // one diverging query is enough to read
    }
    EXPECT_EQ(q, lib.queries->size());
  }
}

TEST(LibraryDedup, ConcurrentTopKMatchesSerial) {
  // Run under TSan by scripts/tier1.sh: eight threads share one NLQ and
  // one DVQ library, each folding duplicate texts, and must reproduce
  // the serial answers.
  dataset::BenchmarkOptions options;
  options.train_size = 600;
  options.test_size = 30;
  const dataset::BenchmarkSuite suite = dataset::BuildBenchmarkSuite(options);
  const SemanticHashEmbedder embedder;
  const models::ExampleIndex nlq_index(&suite.train, &embedder,
                                       RetrievalConfig{});
  const models::DvqIndex dvq_index(&suite.train, &embedder,
                                   RetrievalConfig{});
  ASSERT_LT(dvq_index.distinct_size(), dvq_index.size());
  struct Query {
    const models::LibraryIndex* library;
    std::string text;
    std::vector<models::LibraryIndex::Hit> expected;
  };
  std::vector<Query> queries;
  for (const dataset::Example& ex : suite.test_nlq) {
    queries.push_back({&nlq_index, ex.nlq, nlq_index.TopK(ex.nlq, 10)});
    queries.push_back(
        {&dvq_index, ex.DvqText(), dvq_index.TopK(ex.DvqText(), 10)});
  }
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 2;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const Query& q = queries[(i + t * 5) % queries.size()];
          const std::vector<models::LibraryIndex::Hit> hits =
              q.library->TopK(q.text, 10);
          bool same = hits.size() == q.expected.size();
          for (std::size_t r = 0; same && r < hits.size(); ++r) {
            same = hits[r].index == q.expected[r].index &&
                   hits[r].example == q.expected[r].example &&
                   std::memcmp(&hits[r].score, &q.expected[r].score,
                               sizeof(double)) == 0;
          }
          if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace gred::embed
