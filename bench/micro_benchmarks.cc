// Engineering micro-benchmarks (google-benchmark): throughput of the
// subsystems the GRED pipeline is built from. Not part of the paper's
// evaluation; used to track the cost of the retrieval-augmented loop.

#include <benchmark/benchmark.h>

#include "dataset/benchmark.h"
#include "embed/ann_index.h"
#include "dvq/parser.h"
#include "embed/caching_embedder.h"
#include "embed/embedder.h"
#include "embed/posting_list_store.h"
#include "embed/vector_store.h"
#include "exec/executor.h"
#include "llm/sim_llm.h"
#include "gred/gred.h"
#include "models/rgvisnet.h"
#include "models/seq2vis.h"

namespace {

using gred::dataset::BenchmarkOptions;
using gred::dataset::BenchmarkSuite;

const BenchmarkSuite& Suite() {
  static const BenchmarkSuite* const kSuite = [] {
    BenchmarkOptions options;
    options.train_size = 1200;
    options.test_size = 200;
    return new BenchmarkSuite(gred::dataset::BuildBenchmarkSuite(options));
  }();
  return *kSuite;
}

void BM_Embed(benchmark::State& state) {
  gred::embed::SemanticHashEmbedder embedder;
  const std::string& nlq = Suite().test_clean[0].nlq;
  for (auto _ : state) {
    benchmark::DoNotOptimize(embedder.Embed(nlq));
  }
}
BENCHMARK(BM_Embed);

void BM_VectorStoreTopK(benchmark::State& state) {
  gred::embed::SemanticHashEmbedder embedder;
  gred::embed::VectorStore store;
  for (const auto& ex : Suite().train) {
    store.Add(gred::embed::Densify(embedder.Embed(ex.nlq)));
  }
  gred::embed::Vector query =
      gred::embed::Densify(embedder.Embed(Suite().test_clean[0].nlq));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.TopK(query, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(store.size()));
}
BENCHMARK(BM_VectorStoreTopK)->Arg(1)->Arg(10)->Arg(50);

// The exact backend RetrievalIndex serves by default, sealed as serving
// seals it: the same library and query as BM_VectorStoreTopK through the
// bound-pruned posting lists, bit-identical hits, so items_per_second is
// directly comparable.
void BM_PostingListStoreTopK(benchmark::State& state) {
  gred::embed::SemanticHashEmbedder embedder;
  gred::embed::PostingListStore store;
  for (const auto& ex : Suite().train) store.Add(embedder.Embed(ex.nlq));
  store.Seal();
  gred::embed::SparseRow query = embedder.Embed(Suite().test_clean[0].nlq);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.TopK(query, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(store.size()));
}
BENCHMARK(BM_PostingListStoreTopK)->Arg(1)->Arg(10)->Arg(50);

// The Retuner's library: DVQ embeddings share more heavy dimensions than
// NLQ embeddings, so this is where the bound prunes the most postings.
void BM_PostingListStoreTopKDvq(benchmark::State& state) {
  gred::embed::SemanticHashEmbedder embedder;
  gred::embed::PostingListStore store;
  for (const auto& ex : Suite().train) store.Add(embedder.Embed(ex.DvqText()));
  store.Seal();
  gred::embed::SparseRow query =
      embedder.Embed(Suite().test_clean[0].DvqText());
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.TopK(query, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(store.size()));
}
BENCHMARK(BM_PostingListStoreTopKDvq)->Arg(1)->Arg(10)->Arg(50);

// Library build cost of the exact backend: Add + Seal of the default
// 6000-row NLQ library from rows embedded once up front, so the time is
// the store's alone (EmbedLibrary embeds on every core before it Adds).
void BM_PostingListStoreBuild(benchmark::State& state) {
  static const std::vector<gred::embed::SparseRow>* const kRows = [] {
    const BenchmarkSuite suite =
        gred::dataset::BuildBenchmarkSuite(BenchmarkOptions{});
    gred::embed::SemanticHashEmbedder embedder;
    auto* rows = new std::vector<gred::embed::SparseRow>();
    for (const auto& ex : suite.train) rows->push_back(embedder.Embed(ex.nlq));
    return rows;
  }();
  for (auto _ : state) {
    gred::embed::PostingListStore store;
    for (const gred::embed::SparseRow& row : *kRows) store.Add(row);
    store.Seal();
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRows->size()));
}
BENCHMARK(BM_PostingListStoreBuild)->Unit(benchmark::kMillisecond);

// Cache-hit path of the shared embedding cache: every eval thread embeds
// repeated NLQs during fault sweeps and k-sweeps.
void BM_CachingEmbedderHit(benchmark::State& state) {
  gred::embed::CachingEmbedder embedder(
      std::make_unique<gred::embed::SemanticHashEmbedder>());
  const std::string& nlq = Suite().test_clean[0].nlq;
  benchmark::DoNotOptimize(embedder.Embed(nlq));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(embedder.Embed(nlq));
  }
}
BENCHMARK(BM_CachingEmbedderHit);

void BM_IvfIndexTopK(benchmark::State& state) {
  gred::embed::SemanticHashEmbedder embedder;
  gred::embed::IvfIndex::Options options;
  options.num_probes = static_cast<std::size_t>(state.range(0));
  gred::embed::IvfIndex index(options);
  for (const auto& ex : Suite().train) {
    index.Add(gred::embed::Densify(embedder.Embed(ex.nlq)));
  }
  index.Build();
  gred::embed::Vector query =
      gred::embed::Densify(embedder.Embed(Suite().test_clean[0].nlq));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TopK(query, 10));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(index.size()));
}
BENCHMARK(BM_IvfIndexTopK)->Arg(1)->Arg(4)->Arg(16);

void BM_ParseDvq(benchmark::State& state) {
  const std::string text = Suite().train[0].DvqText();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gred::dvq::Parse(text));
  }
}
BENCHMARK(BM_ParseDvq);

void BM_ExecuteDvq(benchmark::State& state) {
  const auto& suite = Suite();
  const auto& ex = suite.test_clean[0];
  const gred::dataset::GeneratedDatabase* db = suite.FindCleanDb(ex.db_name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gred::exec::Execute(ex.dvq, db->data));
  }
}
BENCHMARK(BM_ExecuteDvq);

void BM_GredTranslate(benchmark::State& state) {
  const auto& suite = Suite();
  gred::models::TrainingCorpus corpus;
  corpus.train = &suite.train;
  corpus.databases = &suite.databases;
  static gred::llm::SimulatedChatModel llm;
  gred::core::Gred model(corpus, &llm);
  const auto& ex = suite.test_both[0];
  const gred::dataset::GeneratedDatabase* db = suite.FindRobDb(ex.db_name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Translate(ex.nlq, db->data));
  }
}
BENCHMARK(BM_GredTranslate);

void BM_RgvisnetTranslate(benchmark::State& state) {
  const auto& suite = Suite();
  gred::models::TrainingCorpus corpus;
  corpus.train = &suite.train;
  corpus.databases = &suite.databases;
  gred::models::RGVisNet model(corpus);
  const auto& ex = suite.test_both[0];
  const gred::dataset::GeneratedDatabase* db = suite.FindRobDb(ex.db_name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Translate(ex.nlq, db->data));
  }
}
BENCHMARK(BM_RgvisnetTranslate);

}  // namespace

BENCHMARK_MAIN();
