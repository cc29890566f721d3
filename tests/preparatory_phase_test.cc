// Golden-digest tests for the preparatory phase: the nvBench-Rob suite,
// the embedding libraries and GRED's embedding-cache counters at the
// default benchmark options. Suite generation, schema rewriting and
// library embedding run on every core; these digests pin their output to
// the values the single-threaded build produced, byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dataset/benchmark.h"
#include "dataset/io.h"
#include "embed/embedder.h"
#include "embed/retrieval_index.h"
#include "gred/gred.h"
#include "llm/sim_llm.h"
#include "models/retrieval.h"
#include "util/rng.h"
#include "util/strings.h"

namespace gred {
namespace {

std::string Hex(std::uint64_t digest) {
  return strings::Format("%016llx", static_cast<unsigned long long>(digest));
}

/// Folds the dense floats of `row` into `state`: the digests below were
/// first taken over dense embeddings, and Densify reproduces their bytes.
std::uint64_t Continue(std::uint64_t state, const embed::SparseRow& row) {
  const embed::Vector v = embed::Densify(row);
  return Fnv1a64Continue(state, v.data(), v.size() * sizeof(float));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

class PreparatoryPhase : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    suite_ = new dataset::BenchmarkSuite(
        dataset::BuildBenchmarkSuite(dataset::BenchmarkOptions{}));
  }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }

  /// FNV-1a over the database dumps, clean corpus then renamed corpus.
  static std::uint64_t DatabasesDigest() {
    std::uint64_t digest = Fnv1a64("");
    for (const auto* dbs : {&suite_->databases, &suite_->databases_rob}) {
      for (const dataset::GeneratedDatabase& db : *dbs) {
        digest = Fnv1a64Continue(digest, dataset::DatabaseToJson(db).Dump());
      }
    }
    return digest;
  }

  static dataset::BenchmarkSuite* suite_;
};

dataset::BenchmarkSuite* PreparatoryPhase::suite_ = nullptr;

TEST_F(PreparatoryPhase, DatabasesDigestMatchesGolden) {
  EXPECT_EQ(Hex(DatabasesDigest()), "7a0ef92cfc8df323");
}

TEST_F(PreparatoryPhase, SuiteDigestMatchesGolden) {
  std::uint64_t digest = DatabasesDigest();
  for (const auto* split : {&suite_->train, &suite_->test_clean,
                            &suite_->test_nlq, &suite_->test_schema,
                            &suite_->test_both}) {
    digest = Fnv1a64Continue(digest, dataset::ExamplesToJson(*split).Dump());
  }
  EXPECT_EQ(Hex(digest), "5a476e1c3871acff");
}

TEST_F(PreparatoryPhase, LibraryDigestMatchesGolden) {
  const embed::SemanticHashEmbedder embedder;
  std::uint64_t digest = Fnv1a64("");
  for (const dataset::Example& ex : suite_->train) {
    digest = Continue(digest, embedder.Embed(ex.nlq));
  }
  for (const dataset::Example& ex : suite_->train) {
    digest = Continue(digest, embedder.Embed(ex.DvqText()));
  }
  EXPECT_EQ(Hex(digest), "029da38c08683abb");
}

// The served queries: every NLQ of the four test splits, then every gold
// DVQ text, as the embedder's sparse rows.
TEST_F(PreparatoryPhase, TestSplitDigestMatchesGolden) {
  const embed::SemanticHashEmbedder embedder;
  const std::vector<dataset::Example>* const splits[] = {
      &suite_->test_clean, &suite_->test_nlq, &suite_->test_schema,
      &suite_->test_both};
  std::uint64_t digest = Fnv1a64("");
  for (const auto* split : splits) {
    for (const dataset::Example& ex : *split) {
      digest = Continue(digest, embedder.Embed(ex.nlq));
    }
  }
  for (const auto* split : splits) {
    for (const dataset::Example& ex : *split) {
      digest = Continue(digest, embedder.Embed(ex.DvqText()));
    }
  }
  EXPECT_EQ(Hex(digest), "a98083399b31eeed");
}

// The libraries are embedded in parallel batches; their rows must still
// sit in training order, so every hit equals that of a row-by-row build.
TEST_F(PreparatoryPhase, IndexesMatchRowByRowBuild) {
  const embed::SemanticHashEmbedder embedder;
  const models::ExampleIndex nlq_index(&suite_->train, &embedder);
  const models::DvqIndex dvq_index(&suite_->train, &embedder);
  embed::RetrievalIndex nlq_serial(embed::RetrievalConfig::FromEnv());
  embed::RetrievalIndex dvq_serial(embed::RetrievalConfig::FromEnv());
  for (const dataset::Example& ex : suite_->train) {
    nlq_serial.Add(embedder.Embed(ex.nlq));
    dvq_serial.Add(embedder.Embed(ex.DvqText()));
  }
  nlq_serial.Seal();
  dvq_serial.Seal();

  constexpr std::size_t kK = 10;
  for (std::size_t q = 0; q < suite_->test_nlq.size(); q += 12) {
    const dataset::Example& ex = suite_->test_nlq[q];
    const std::vector<models::ExampleIndex::Hit> nlq_hits =
        nlq_index.TopK(ex.nlq, kK);
    const std::vector<embed::VectorStore::Hit> nlq_want =
        nlq_serial.TopK(embedder.Embed(ex.nlq), kK);
    ASSERT_EQ(nlq_hits.size(), nlq_want.size()) << ex.id;
    for (std::size_t i = 0; i < nlq_want.size(); ++i) {
      EXPECT_EQ(nlq_hits[i].index, nlq_want[i].index) << ex.id;
      EXPECT_TRUE(SameBits(nlq_hits[i].score, nlq_want[i].score)) << ex.id;
    }
    const std::vector<models::DvqIndex::Hit> dvq_hits =
        dvq_index.TopK(ex.DvqText(), kK);
    const std::vector<embed::VectorStore::Hit> dvq_want =
        dvq_serial.TopK(embedder.Embed(ex.DvqText()), kK);
    ASSERT_EQ(dvq_hits.size(), dvq_want.size()) << ex.id;
    for (std::size_t i = 0; i < dvq_want.size(); ++i) {
      EXPECT_EQ(dvq_hits[i].index, dvq_want[i].index) << ex.id;
      EXPECT_TRUE(SameBits(dvq_hits[i].score, dvq_want[i].score)) << ex.id;
    }
  }
}

// Building both libraries through one memoizing embedder counts the same
// misses and hits as embedding row by row: a repeated text is a hit, never
// a second miss from a concurrent first touch.
TEST_F(PreparatoryPhase, GredConstructionCountsSerialCacheStats) {
  const llm::SimulatedChatModel llm;
  models::TrainingCorpus corpus;
  corpus.train = &suite_->train;
  corpus.databases = &suite_->databases;
  const core::Gred gred(corpus, &llm);
  const embed::CachingEmbedder::Stats stats = gred.embed_cache_stats();
  EXPECT_EQ(stats.misses, 7897u);
  EXPECT_EQ(stats.hits, 4103u);
}

}  // namespace
}  // namespace gred
