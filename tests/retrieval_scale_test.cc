// Retrieval-at-scale acceptance tests: the library-growth generator and
// the IVF index at 10^5 entries.
//
// These are the slowest tests in the suite (a few seconds in Release) on
// purpose: the ISSUE-8 contract is about behaviour at scale — IVF
// multi-probe recall@10 >= 0.99 over a 10^5-entry generated library —
// and no small fixture can stand in for it. Everything is seeded, so a
// recall regression here is a real ranking change, not flakiness.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dataset/db_generator.h"
#include "dataset/entity_bank.h"
#include "dataset/library_growth.h"
#include "embed/ann_index.h"
#include "embed/embedder.h"
#include "embed/vector_store.h"
#include "nl/lexicon.h"

namespace gred::embed {
namespace {

constexpr std::size_t kLibrarySize = 100000;
constexpr std::size_t kDim = 128;

/// The grown library, embedded once and shared across tests in this
/// binary (building it twice would double the suite's slowest fixture).
class ScaleFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset::DbGeneratorOptions db_options;
    databases_ = new std::vector<dataset::GeneratedDatabase>(
        dataset::GenerateDatabases(dataset::EntityBank::Default(),
                                   db_options));
    library_ = new std::vector<std::string>(dataset::GrowNlqLibrary(
        *databases_, nl::Lexicon::Default(), kLibrarySize));
    EmbedderOptions options;
    options.dimension = kDim;
    SemanticHashEmbedder embedder(&nl::Lexicon::Default(), options);
    vectors_ = new std::vector<Vector>();
    vectors_->reserve(library_->size());
    for (const std::string& nlq : *library_) {
      vectors_->push_back(Densify(embedder.Embed(nlq)));
    }
  }

  static void TearDownTestSuite() {
    delete vectors_;
    vectors_ = nullptr;
    delete library_;
    library_ = nullptr;
    delete databases_;
    databases_ = nullptr;
  }

  static std::vector<dataset::GeneratedDatabase>* databases_;
  static std::vector<std::string>* library_;
  static std::vector<Vector>* vectors_;
};

std::vector<dataset::GeneratedDatabase>* ScaleFixture::databases_ = nullptr;
std::vector<std::string>* ScaleFixture::library_ = nullptr;
std::vector<Vector>* ScaleFixture::vectors_ = nullptr;

TEST_F(ScaleFixture, LibraryGrowthIsDeterministicAndWellFormed) {
  ASSERT_EQ(library_->size(), kLibrarySize);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_FALSE((*library_)[i].empty()) << "entry " << i;
  }
  // Same corpus + seed => same library (spot-check a prefix rebuild).
  std::vector<std::string> again = dataset::GrowNlqLibrary(
      *databases_, nl::Lexicon::Default(), 500);
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i], (*library_)[i]) << "entry " << i;
  }
  // The library is not degenerate repetition: plenty of distinct
  // questions in any window.
  std::set<std::string> distinct(library_->begin(), library_->begin() + 5000);
  EXPECT_GT(distinct.size(), 2500u);
}

TEST_F(ScaleFixture, IvfMultiProbeRecallAtTenAboveNinetyNinePercent) {
  IvfIndex::Options options;
  options.num_clusters = 0;  // auto ~sqrt(n)
  options.num_probes = 16;
  options.quantized_scan = true;  // the production (env-default) shape
  IvfIndex index(options);
  VectorStore exact;
  for (const Vector& v : *vectors_) {
    index.Add(v);
    exact.Add(v);
  }
  index.Build();
  ASSERT_EQ(index.built_size(), kLibrarySize);
  EXPECT_GE(index.num_clusters(), 256u);  // ~sqrt(1e5), clamped

  // Queries drawn from a disjoint generator seed: same distribution,
  // never the same strings as the library.
  dataset::LibraryGrowthOptions query_options;
  query_options.seed = 0xfeedbeef;
  std::vector<std::string> query_texts = dataset::GrowNlqLibrary(
      *databases_, nl::Lexicon::Default(), 50, query_options);
  EmbedderOptions embed_options;
  embed_options.dimension = kDim;
  SemanticHashEmbedder embedder(&nl::Lexicon::Default(), embed_options);

  const std::size_t k = 10;
  double recall_sum = 0.0;
  for (const std::string& nlq : query_texts) {
    Vector q = Densify(embedder.Embed(nlq));
    std::vector<Hit> truth = exact.TopK(q, k);
    std::vector<Hit> approx = index.TopK(q, k);
    std::size_t hits = 0;
    for (const Hit& t : truth) {
      for (const Hit& a : approx) {
        if (a.index == t.index) {
          ++hits;
          break;
        }
      }
    }
    recall_sum += static_cast<double>(hits) /
                  static_cast<double>(truth.size());
  }
  const double recall = recall_sum / static_cast<double>(query_texts.size());
  RecordProperty("recall_at_10", std::to_string(recall));
  EXPECT_GE(recall, 0.99) << "IVF multi-probe recall@10 regressed at 10^5";
}

}  // namespace
}  // namespace gred::embed
