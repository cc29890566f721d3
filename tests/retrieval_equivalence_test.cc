// Equivalence suite for the retrieval kernels.
//
// The flat SoA store, blocked dot kernel and bounded top-k heap must
// return bit-identical hits (scores AND order) to a naive reference —
// materialize every candidate, full sort, truncate — across randomized
// inputs and the edge cases that historically bite top-k implementations
// (empty store, k=0, k>size, duplicate vectors, zero vectors). The
// posting-list store behind RetrievalIndex's exact backend must in turn
// match that dense scan bit for bit, on random sparse vectors and on the
// benchmark's real NLQ and DVQ libraries, and stay identical under a
// many-thread TopK hammer. The CachingEmbedder is hammered from many
// threads and must behave exactly like its inner embedder. The hammers
// run under TSan in scripts/tier1.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
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

TEST(QuantizedEquivalence, ReRankMatchesExactTopKOnSeedCorpus) {
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
  VectorStore store;
  for (const dataset::Example& ex : suite.train) {
    store.Add(embedder.Embed(ex.nlq));
  }
  store.EnsureQuantized();
  const std::size_t k = 10;
  const std::size_t shortlist = ShortlistSize(k, store.size(), 4, 32);
  for (const dataset::Example& ex : suite.test_nlq) {
    Vector q = embedder.Embed(ex.nlq_rob.empty() ? ex.nlq : ex.nlq_rob);
    ExpectBitIdentical(store.TopKQuantized(q, k, shortlist),
                       store.TopK(q, k));
  }
}

TEST(QuantizedEquivalence, RandomizedReRankMatchesExact) {
  Rng rng(71);
  for (std::size_t n : {std::size_t{1}, std::size_t{50}, std::size_t{400}}) {
    VectorStore store;
    for (std::size_t i = 0; i < n; ++i) store.Add(RandomVector(&rng, 64));
    store.EnsureQuantized();
    for (int qi = 0; qi < 10; ++qi) {
      Vector q = RandomVector(&rng, 64);
      for (std::size_t k : {std::size_t{1}, std::size_t{10}, n}) {
        ExpectBitIdentical(
            store.TopKQuantized(q, k, ShortlistSize(k, n, 4, 32)),
            store.TopK(q, k));
      }
    }
  }
}

TEST(QuantizedEquivalence, DegenerateInputs) {
  VectorStore store;
  store.EnsureQuantized();
  EXPECT_TRUE(store.TopKQuantized({1.0f, 0.0f}, 5, 10).empty());  // empty

  store.Add({1.0f, 0.0f});
  store.Add(Vector(2, 0.0f));  // all-zero row quantizes to scale 0
  store.Add({0.0f, 1.0f});
  store.EnsureQuantized();
  EXPECT_TRUE(store.TopKQuantized({1.0f, 0.0f}, 0, 10).empty());  // k = 0

  // Dimension mismatch: every score exactly 0, index-ordered (the
  // CosineSimilarity contract through the quantized path).
  std::vector<Hit> mismatched =
      store.TopKQuantized({1.0f, 0.0f, 0.0f}, 3, 10);
  ASSERT_EQ(mismatched.size(), 3u);
  for (std::size_t i = 0; i < mismatched.size(); ++i) {
    EXPECT_EQ(mismatched[i].index, i);
    EXPECT_EQ(mismatched[i].score, 0.0);
  }

  // All-zero query: same contract.
  std::vector<Hit> zero = store.TopKQuantized(Vector(2, 0.0f), 3, 10);
  ASSERT_EQ(zero.size(), 3u);
  for (const Hit& hit : zero) EXPECT_EQ(hit.score, 0.0);
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
    facade.Add(v);
    store.Add(v);
  }
  facade.Seal();
  for (int qi = 0; qi < 8; ++qi) {
    Vector q = RandomVector(&rng, 32);
    ExpectBitIdentical(facade.TopK(q, 12), store.TopK(q, 12));
  }
}

TEST(RetrievalIndexFacade, AllBackendsReturnExactScoresAndAgreeHere) {
  // On a small library every backend's shortlist covers the whole store,
  // so all three must agree bit-for-bit (scores are always exact-kernel
  // scores by the re-rank contract).
  Rng rng(93);
  std::vector<Vector> vectors;
  for (int i = 0; i < 120; ++i) vectors.push_back(RandomVector(&rng, 16));
  std::vector<RetrievalIndex> indexes;
  for (RetrievalBackend backend :
       {RetrievalBackend::kExact, RetrievalBackend::kQuantized,
        RetrievalBackend::kIvf}) {
    RetrievalConfig config;
    config.backend = backend;
    config.ivf.num_clusters = 4;
    config.ivf.num_probes = 4;  // probe everything
    config.ivf.quantized_scan = true;
    indexes.emplace_back(config);
  }
  for (RetrievalIndex& index : indexes) {
    for (const Vector& v : vectors) index.Add(v);
    index.Seal();
    EXPECT_EQ(index.size(), vectors.size());
  }
  for (int qi = 0; qi < 8; ++qi) {
    Vector q = RandomVector(&rng, 16);
    std::vector<Hit> expected = indexes[0].TopK(q, 10);
    ExpectBitIdentical(indexes[1].TopK(q, 10), expected);
    ExpectBitIdentical(indexes[2].TopK(q, 10), expected);
  }
}

TEST(RetrievalIndexFacade, AddAfterSealStaysRetrievableOnEveryBackend) {
  for (RetrievalBackend backend :
       {RetrievalBackend::kExact, RetrievalBackend::kQuantized,
        RetrievalBackend::kIvf}) {
    RetrievalConfig config;
    config.backend = backend;
    config.ivf.num_clusters = 2;
    config.ivf.num_probes = 2;
    RetrievalIndex index(config);
    index.Add({1.0f, 0.0f});
    index.Add({0.7f, 0.7f});
    index.Seal();
    index.Add({0.0f, 1.0f});  // post-seal insert
    std::vector<Hit> hits = index.TopK({0.0f, 1.0f}, 1);
    ASSERT_EQ(hits.size(), 1u)
        << RetrievalBackendName(backend);
    EXPECT_EQ(hits[0].index, 2u) << RetrievalBackendName(backend);
  }
}

TEST(RetrievalIndexFacade, BackendNamesAreStable) {
  EXPECT_STREQ(RetrievalBackendName(RetrievalBackend::kExact), "exact");
  EXPECT_STREQ(RetrievalBackendName(RetrievalBackend::kQuantized),
               "quantized");
  EXPECT_STREQ(RetrievalBackendName(RetrievalBackend::kIvf), "ivf");
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
  ExpectBitIdentical(index.TopK(query, k), dense.TopK(query, k));
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
            index.Add(v);
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
    index.Add(v);
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
  EXPECT_TRUE(empty.TopK({1.0f, 0.0f}, 5).empty());
  EXPECT_TRUE(empty.TopK({}, 5).empty());

  Rng rng(41);
  RetrievalIndex index;
  VectorStore dense;
  const Vector dup = RandomSparseVector(&rng, 64, 0.2);
  for (int i = 0; i < 60; ++i) {
    Vector v = i % 5 == 0   ? Vector(64, 0.0f)
               : i % 3 == 0 ? dup
                            : RandomSparseVector(&rng, 64, 0.2);
    index.Add(v);
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
  std::vector<Hit> hits = index.TopK(dup, 3);
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
    index.Add(v);
    dense.Add(v);
  }
  index.Seal();
  for (int i = 0; i < 80; ++i) {
    Vector v = RandomSparseVector(&rng, 30, 0.3);
    EXPECT_EQ(index.Add(v), dense.Add(v));
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
    large.Add(v);
    large_dense.Add(v);
    if (i % 9 == 0) {
      small.Add(v);
      small_dense.Add(v);
    }
  }
  for (int qi = 0; qi < 20; ++qi) {
    Vector q = RandomSparseVector(&rng, 48, 0.2);
    ExpectBitIdentical(large.TopK(q, 10), large_dense.TopK(q, 10));
    ExpectBitIdentical(small.TopK(q, 10), small_dense.TopK(q, 10));
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
    const Vector nlq = embedder.Embed(ex.nlq);
    const Vector dvq = embedder.Embed(ex.DvqText());
    nlq_index.Add(nlq);
    nlq_dense.Add(nlq);
    dvq_index.Add(dvq);
    dvq_dense.Add(dvq);
  }
  nlq_index.Seal();
  dvq_index.Seal();
  std::size_t queries = 0;
  for (const std::vector<dataset::Example>* split :
       {&suite.test_clean, &suite.test_nlq}) {
    for (const dataset::Example& ex : *split) {
      ExpectExactMatchesDense(nlq_index, nlq_dense, embedder.Embed(ex.nlq),
                              10);
      ExpectExactMatchesDense(dvq_index, dvq_dense,
                              embedder.Embed(ex.DvqText()), 10);
      ++queries;
      if (HasFailure()) return;  // one diverging query is enough to read
    }
  }
  EXPECT_EQ(queries, suite.test_clean.size() + suite.test_nlq.size());
}

TEST(RetrievalIndexFacade, ConcurrentExactTopKMatchesSerialRun) {
  // Run under TSan by scripts/tier1.sh: many threads querying one sealed
  // exact index, each through its own per-thread accumulators, must
  // reproduce the serial answers bit for bit.
  Rng rng(73);
  RetrievalIndex index;
  for (int i = 0; i < 1500; ++i) {
    index.Add(RandomSparseVector(&rng, 128, 0.2));
  }
  index.Seal();
  std::vector<Vector> queries;
  std::vector<std::vector<Hit>> expected;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(RandomSparseVector(&rng, 128, 0.2));
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
  std::vector<Vector> expected;
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

}  // namespace
}  // namespace gred::embed
