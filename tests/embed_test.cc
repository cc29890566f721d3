// Unit tests for the embedding models, their sparse-row contract and the
// dense vector store.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "embed/ann_index.h"
#include "embed/embedder.h"
#include "embed/posting_list_store.h"
#include "embed/vector_store.h"
#include "util/rng.h"

namespace gred::embed {
namespace {

double Norm(const Vector& v) {
  double n = 0.0;
  for (float x : v) n += static_cast<double>(x) * x;
  return std::sqrt(n);
}

/// The dense vector of `text`'s embedding.
Vector Dense(const TextEmbedder& embedder, const std::string& text) {
  return Densify(embedder.Embed(text));
}

TEST(Embedder, Deterministic) {
  SemanticHashEmbedder embedder;
  SparseRow a = embedder.Embed("show the salary by department");
  SparseRow b = embedder.Embed("show the salary by department");
  EXPECT_EQ(a, b);
}

TEST(Embedder, UnitNorm) {
  SemanticHashEmbedder embedder;
  Vector v = Dense(embedder, "average price per category");
  EXPECT_NEAR(Norm(v), 1.0, 1e-5);
  EXPECT_EQ(v.size(), embedder.dimension());
}

TEST(Embedder, EmptyTextIsZeroVector) {
  SemanticHashEmbedder embedder;
  Vector v = Dense(embedder, "");
  EXPECT_NEAR(Norm(v), 0.0, 1e-9);
}

TEST(Embedder, SynonymsLandCloseWithConceptFolding) {
  SemanticHashEmbedder semantic;
  double syn = CosineSimilarity(Dense(semantic, "the employee salary"),
                                Dense(semantic, "the worker wage"));
  double unrelated = CosineSimilarity(Dense(semantic, "the employee salary"),
                                      Dense(semantic, "flight departure"));
  EXPECT_GT(syn, unrelated + 0.2);
}

TEST(Embedder, LexicalVariantIgnoresSynonymy) {
  LexicalHashEmbedder lexical;
  SemanticHashEmbedder semantic;
  double lex_syn = CosineSimilarity(Dense(lexical, "the employee salary"),
                                    Dense(lexical, "the worker wage"));
  double sem_syn = CosineSimilarity(Dense(semantic, "the employee salary"),
                                    Dense(semantic, "the worker wage"));
  // The semantic embedder sees the paraphrase; the lexical one largely
  // does not — the asymmetry the robustness study hinges on.
  EXPECT_GT(sem_syn, lex_syn + 0.25);
}

TEST(Embedder, IdenticalTextMaxSimilarity) {
  SemanticHashEmbedder embedder;
  Vector v = Dense(embedder, "identical question");
  EXPECT_NEAR(CosineSimilarity(v, v), 1.0, 1e-6);
}

// The sparse-row contract (embedder.h) that the caching embedder, the
// posting-list store and every Densify boundary rely on.

/// Texts that exercise every feature kind: tokens, concepts, trigrams,
/// numbers, identifiers, DVQ syntax and a long run of repeats.
const std::vector<std::string>& ContractTexts() {
  static const std::vector<std::string> kTexts = {
      "show the salary by department",
      "What are cinema_name and open year in cinemas? Plot a bar chart.",
      "Visualize BAR SELECT dept_name , AVG(salary) FROM employees GROUP BY "
      "dept_name ORDER BY AVG(salary) DESC",
      "x",
      "the worker wage the worker wage the worker wage the worker wage",
      "count of flights per departure city between 1999 and 2004"};
  return kTexts;
}

/// Strictly ascending dims below the recorded dimension, one finite
/// non-zero value each, exactly sized, unit length.
void ExpectSparseContract(const SparseRow& row, std::size_t dimension,
                          const std::string& text) {
  SCOPED_TRACE(text);
  EXPECT_EQ(row.dimension, dimension);
  ASSERT_EQ(row.dims.size(), row.values.size());
  EXPECT_EQ(row.dims.capacity(), row.nnz());
  EXPECT_EQ(row.values.capacity(), row.nnz());
  for (std::size_t i = 0; i < row.nnz(); ++i) {
    EXPECT_LT(row.dims[i], dimension);
    if (i > 0) {
      EXPECT_LT(row.dims[i - 1], row.dims[i]);
    }
    EXPECT_NE(row.values[i], 0.0f);  // neither +0 nor -0
    EXPECT_TRUE(std::isfinite(row.values[i]));
  }
  EXPECT_NEAR(Norm(Densify(row)), 1.0, 1e-5);
}

TEST(SparseEmbedding, SemanticRowsHoldTheContract) {
  SemanticHashEmbedder embedder;
  for (const std::string& text : ContractTexts()) {
    ExpectSparseContract(embedder.Embed(text), embedder.dimension(), text);
  }
}

TEST(SparseEmbedding, LexicalRowsHoldTheContract) {
  LexicalHashEmbedder embedder;
  for (const std::string& text : ContractTexts()) {
    ExpectSparseContract(embedder.Embed(text), embedder.dimension(), text);
  }
}

TEST(SparseEmbedding, OtherDimensionsAreRecorded) {
  // 7 leaves a DotBlocked tail; 65536 is the widest a uint16 dim allows.
  for (std::size_t dimension : {7u, 128u, 65536u}) {
    EmbedderOptions options;
    options.dimension = dimension;
    SemanticHashEmbedder semantic(&nl::Lexicon::Default(), options);
    LexicalHashEmbedder lexical(options);
    for (const std::string& text : ContractTexts()) {
      ExpectSparseContract(semantic.Embed(text), dimension, text);
      ExpectSparseContract(lexical.Embed(text), dimension, text);
    }
  }
}

TEST(SparseEmbedding, EmptyTextHasNoNonZeros) {
  SemanticHashEmbedder semantic;
  LexicalHashEmbedder lexical;
  for (const TextEmbedder* embedder :
       {static_cast<const TextEmbedder*>(&semantic),
        static_cast<const TextEmbedder*>(&lexical)}) {
    for (const std::string text : {"", "   ", "?!"}) {
      const SparseRow row = embedder->Embed(text);
      EXPECT_EQ(row.nnz(), 0u) << "'" << text << "'";
      EXPECT_TRUE(row.values.empty()) << "'" << text << "'";
      EXPECT_EQ(row.dimension, embedder->dimension()) << "'" << text << "'";
      EXPECT_EQ(Densify(row), Vector(embedder->dimension(), 0.0f));
    }
  }
}

TEST(SparseEmbedding, NonZeroNormalizationIsBitIdenticalToDense) {
  // Summing the squares of the non-zeros alone gives the dense sum, so
  // the sparse and dense normalizations agree bit for bit (DESIGN.md
  // §15), and an entry the scaling rounds to zero leaves the row.
  Rng rng(19);
  for (int trial = 0; trial < 200; ++trial) {
    SparseRow row;
    row.dimension = 1 + static_cast<std::uint32_t>(rng.NextIndex(600));
    for (std::uint32_t d = 0; d < row.dimension; ++d) {
      if (!rng.NextBool(0.2)) continue;
      row.dims.push_back(static_cast<std::uint16_t>(d));
      // Every tenth row mixes 1e20 and 1e-30 entries: the small ones
      // scale below the smallest float and must drop out.
      const double scale =
          trial % 10 != 0 ? 1.0 : rng.NextBool(0.5) ? 1e20 : 1e-30;
      row.values.push_back(
          static_cast<float>((rng.NextDouble() - 0.5) * scale));
      if (row.values.back() == 0.0f) row.values.back() = 0.25f;
    }
    Vector dense = Densify(row);
    L2Normalize(&dense);
    L2Normalize(&row);
    const Vector sparse = Densify(row);
    ASSERT_EQ(sparse.size(), dense.size());
    for (std::size_t d = 0; d < dense.size(); ++d) {
      // Bits, except that a dropped entry reads +0 where the dense
      // scaling may have kept -0.
      if (dense[d] == 0.0f) {
        EXPECT_EQ(sparse[d], 0.0f) << trial << " " << d;
      } else {
        EXPECT_EQ(std::memcmp(&sparse[d], &dense[d], sizeof(float)), 0)
            << trial << " " << d;
      }
    }
    for (float x : row.values) EXPECT_NE(x, 0.0f);
  }
}

TEST(Cosine, EdgeCases) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({1.0f}, {1.0f, 0.0f}), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0.0f, 0.0f}, {0.0f, 0.0f}), 0.0);
}

TEST(Cosine, OppositeVectors) {
  EXPECT_NEAR(CosineSimilarity({1.0f, 0.0f}, {-1.0f, 0.0f}), -1.0, 1e-9);
}

TEST(L2Normalize, MakesUnitLength) {
  Vector v = {3.0f, 4.0f};
  L2Normalize(&v);
  EXPECT_NEAR(v[0], 0.6f, 1e-6);
  EXPECT_NEAR(v[1], 0.8f, 1e-6);
  Vector zero = {0.0f, 0.0f};
  L2Normalize(&zero);  // must not divide by zero
  EXPECT_EQ(zero[0], 0.0f);
}

TEST(SparseEmbeddingDeathTest, MalformedRowsAbortBeforeIndexing) {
  // Dims index dense scratch and posting lists; a row that breaks the
  // contract's structure must stop the program, never write past them.
  const SparseRow descending{{5, 2}, {0.5f, 0.5f}, 8};
  const SparseRow out_of_range{{1, 8}, {0.5f, 0.5f}, 8};
  const SparseRow short_values{{1, 2}, {0.5f}, 8};
  for (const SparseRow& row : {descending, out_of_range, short_values}) {
    EXPECT_DEATH((void)Densify(row), "SparseRow");
    EXPECT_DEATH(
        {
          PostingListStore store;
          store.Add(row);
        },
        "SparseRow");
    EXPECT_DEATH(
        {
          PostingListStore store;
          store.Add(SparseRow{{1}, {1.0f}, 8});
          (void)store.TopK(row, 1);
        },
        "SparseRow");
  }
}

TEST(VectorStore, TopKOrdering) {
  VectorStore store;
  store.Add({1.0f, 0.0f});
  store.Add({0.0f, 1.0f});
  store.Add({0.7f, 0.7f});
  std::vector<VectorStore::Hit> hits = store.TopK({1.0f, 0.1f}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].index, 0u);
  EXPECT_EQ(hits[1].index, 2u);
  EXPECT_GE(hits[0].score, hits[1].score);
}

TEST(VectorStore, KLargerThanStore) {
  VectorStore store;
  store.Add({1.0f, 0.0f});
  EXPECT_EQ(store.TopK({1.0f, 0.0f}, 10).size(), 1u);
  VectorStore empty;
  EXPECT_TRUE(empty.TopK({1.0f}, 3).empty());
}

TEST(VectorStore, TieBreaksByInsertionIndex) {
  VectorStore store;
  store.Add({1.0f, 0.0f});
  store.Add({1.0f, 0.0f});  // duplicate
  std::vector<VectorStore::Hit> hits = store.TopK({1.0f, 0.0f}, 2);
  EXPECT_EQ(hits[0].index, 0u);
  EXPECT_EQ(hits[1].index, 1u);
}

TEST(VectorStore, ScoresAreCosine) {
  VectorStore store;
  store.Add({2.0f, 0.0f});  // normalized on insert
  std::vector<VectorStore::Hit> hits = store.TopK({5.0f, 0.0f}, 1);
  EXPECT_NEAR(hits[0].score, 1.0, 1e-6);
}

TEST(VectorStore, DimensionMismatchScoresZeroNotPrefixDot) {
  // Regression: TopK used to truncate to the shorter vector
  // (std::min(v.size(), q.size())), silently ranking a wrong-dimension
  // query against the prefix of every stored vector. It now follows the
  // CosineSimilarity contract and scores mismatched dimensions 0.
  VectorStore store;
  store.Add({1.0f, 0.0f});
  store.Add({0.0f, 1.0f});
  std::vector<VectorStore::Hit> hits =
      store.TopK({1.0f, 0.0f, 0.0f, 0.0f}, 2);  // dim 4 vs dim 2
  ASSERT_EQ(hits.size(), 2u);
  for (const VectorStore::Hit& hit : hits) {
    EXPECT_DOUBLE_EQ(hit.score, 0.0);
  }
  // Ties at 0 break by insertion index.
  EXPECT_EQ(hits[0].index, 0u);
  EXPECT_EQ(hits[1].index, 1u);
}

TEST(VectorStore, AtReturnsNormalizedRow) {
  VectorStore store;
  store.Add({3.0f, 4.0f});
  Vector row = store.at(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_NEAR(row[0], 0.6f, 1e-6);
  EXPECT_NEAR(row[1], 0.8f, 1e-6);
}

TEST(IvfIndex, EmptyAndUnbuilt) {
  IvfIndex index;
  EXPECT_TRUE(index.TopK({1.0f, 0.0f}, 3).empty());  // not built
  index.Build();
  EXPECT_TRUE(index.built());
  EXPECT_TRUE(index.TopK({1.0f, 0.0f}, 3).empty());  // empty
}

TEST(IvfIndex, ExactWhenProbingEveryCluster) {
  IvfIndex::Options options;
  options.num_clusters = 4;
  options.num_probes = 4;  // probe all -> exact
  IvfIndex index(options);
  VectorStore exact;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    Vector v(16);
    for (float& x : v) x = static_cast<float>(rng.NextDouble() - 0.5);
    index.Add(v);
    exact.Add(v);
  }
  index.Build();
  Vector q(16);
  for (float& x : q) x = static_cast<float>(rng.NextDouble() - 0.5);
  std::vector<VectorStore::Hit> approx = index.TopK(q, 10);
  std::vector<VectorStore::Hit> truth = exact.TopK(q, 10);
  ASSERT_EQ(approx.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(approx[i].index, truth[i].index);
    EXPECT_NEAR(approx[i].score, truth[i].score, 1e-6);
  }
}

TEST(IvfIndex, RecallAtTenOnClusteredData) {
  // Clustered data (the realistic case): probing 4 of 16 clusters should
  // recover the bulk of the true top-10.
  IvfIndex::Options options;
  options.num_clusters = 16;
  options.num_probes = 4;
  IvfIndex index(options);
  VectorStore exact;
  Rng rng(9);
  std::vector<Vector> centers;
  for (int c = 0; c < 16; ++c) {
    Vector center(32);
    for (float& x : center) x = static_cast<float>(rng.NextDouble() - 0.5);
    L2Normalize(&center);
    centers.push_back(center);
  }
  for (int i = 0; i < 600; ++i) {
    Vector v = centers[rng.NextIndex(centers.size())];
    for (float& x : v) x += static_cast<float>((rng.NextDouble() - 0.5) * 0.2);
    index.Add(v);
    exact.Add(v);
  }
  index.Build();
  double recall_sum = 0.0;
  const int queries = 20;
  for (int qi = 0; qi < queries; ++qi) {
    Vector q = centers[rng.NextIndex(centers.size())];
    for (float& x : q) x += static_cast<float>((rng.NextDouble() - 0.5) * 0.2);
    std::vector<VectorStore::Hit> approx = index.TopK(q, 10);
    std::vector<VectorStore::Hit> truth = exact.TopK(q, 10);
    std::size_t hits = 0;
    for (const auto& t : truth) {
      for (const auto& a : approx) {
        if (a.index == t.index) ++hits;
      }
    }
    recall_sum += static_cast<double>(hits) / 10.0;
  }
  EXPECT_GT(recall_sum / queries, 0.8);
}

TEST(IvfIndex, DeterministicBuilds) {
  auto build = [] {
    IvfIndex index;
    Rng rng(3);
    for (int i = 0; i < 80; ++i) {
      Vector v(8);
      for (float& x : v) x = static_cast<float>(rng.NextDouble());
      index.Add(v);
    }
    index.Build();
    Vector q(8, 0.5f);
    return index.TopK(q, 5);
  };
  std::vector<VectorStore::Hit> a = build();
  std::vector<VectorStore::Hit> b = build();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
  }
}

TEST(IvfIndex, AddsAfterBuildJoinExactPendingTail) {
  IvfIndex::Options options;
  options.refresh_growth_factor = 0.0;  // no automatic refresh in this test
  IvfIndex index(options);
  index.Add({1.0f, 0.0f});
  index.Build();
  EXPECT_TRUE(index.built());
  EXPECT_EQ(index.built_size(), 1u);
  index.Add({0.0f, 1.0f});
  // The index stays serviceable: the new vector sits in the pending tail
  // and is scanned exactly, so it is retrievable before any rebuild.
  EXPECT_TRUE(index.built());
  EXPECT_EQ(index.built_size(), 1u);
  EXPECT_EQ(index.TopK({0.0f, 1.0f}, 1)[0].index, 1u);
  index.Build();
  EXPECT_EQ(index.built_size(), 2u);
  EXPECT_EQ(index.TopK({0.0f, 1.0f}, 1)[0].index, 1u);
}

TEST(IvfIndex, GrowthPastFactorTriggersAutomaticWarmRebuild) {
  IvfIndex::Options options;
  options.num_clusters = 2;
  options.num_probes = 1;
  options.refresh_growth_factor = 1.5;
  IvfIndex index(options);
  Rng rng(17);
  auto add_random = [&] {
    Vector v(8);
    for (float& x : v) x = static_cast<float>(rng.NextDouble() - 0.5);
    index.Add(v);
  };
  for (int i = 0; i < 10; ++i) add_random();
  index.Build();
  EXPECT_EQ(index.built_size(), 10u);
  // Growing to 15 (= 10 * 1.5) must trip the automatic refresh, folding
  // the pending tail back into the clustered lists.
  for (int i = 0; i < 5; ++i) add_random();
  EXPECT_EQ(index.built_size(), 15u);
  EXPECT_TRUE(index.built());
}

TEST(IvfIndex, KLargerThanSizeReturnsEverything) {
  IvfIndex index;
  index.Add({1.0f, 0.0f, 0.0f});
  index.Add({0.0f, 1.0f, 0.0f});
  index.Add({0.0f, 0.0f, 1.0f});
  index.Build();
  std::vector<VectorStore::Hit> hits = index.TopK({1.0f, 1.0f, 1.0f}, 10);
  EXPECT_EQ(hits.size(), 3u);  // clamped to size(), no out-of-range access
}

TEST(IvfIndex, SecondBuildAfterIncrementalAddsSeesAllVectors) {
  IvfIndex::Options options;
  options.num_clusters = 4;
  options.num_probes = 4;  // probe everything -> exact
  IvfIndex index(options);
  Rng rng(11);
  std::vector<Vector> all;
  auto add_batch = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Vector v(8);
      for (float& x : v) x = static_cast<float>(rng.NextDouble() - 0.5);
      L2Normalize(&v);
      all.push_back(v);
      index.Add(v);
    }
  };
  add_batch(10);
  index.Build();
  add_batch(10);
  index.Build();  // second build must re-cluster over all 20
  ASSERT_EQ(index.size(), 20u);
  // Every stored vector (including the post-first-Build batch) must be
  // retrievable as its own exact nearest neighbour.
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::vector<VectorStore::Hit> hits = index.TopK(all[i], 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].index, i);
    EXPECT_NEAR(hits[0].score, 1.0, 1e-5);
  }
}

TEST(IvfIndex, DimensionMismatchScoresZeroNotPrefixDot) {
  // Regression: Dot() used to truncate to the shorter vector, so a
  // wrong-dimension query was silently ranked against prefixes. It now
  // follows the CosineSimilarity contract and scores 0.
  IvfIndex::Options options;
  options.num_clusters = 2;
  options.num_probes = 2;
  IvfIndex index(options);
  index.Add({1.0f, 0.0f});
  index.Add({0.0f, 1.0f});
  index.Build();
  std::vector<VectorStore::Hit> hits =
      index.TopK({1.0f, 0.0f, 0.0f, 0.0f}, 2);  // dim 4 vs dim 2
  for (const VectorStore::Hit& hit : hits) {
    EXPECT_DOUBLE_EQ(hit.score, 0.0);
  }
}

}  // namespace
}  // namespace gred::embed
