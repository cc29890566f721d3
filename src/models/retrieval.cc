#include "models/retrieval.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "util/thread_pool.h"

namespace gred::models {

namespace {

/// Rows embedded per batch: bounds the texts and sparse rows held at
/// once while each batch still splits across every core.
constexpr std::size_t kEmbedBatchRows = 1024;

/// Embeds `text_of(row)` for every training row and adds the rows to
/// `index` in training order, one parallel batch at a time. The embedder
/// builds each row's non-zeros (the CSR row) on the batch's threads, so
/// the serial Add only normalizes and appends O(nnz) per row. Within a
/// batch, the first occurrence of each text is embedded before any repeat
/// of it, so a memoizing embedder counts exactly the misses and hits of a
/// serial row-by-row build: no two threads race on a text's first touch.
template <typename TextOf>
void EmbedLibrary(const std::vector<dataset::Example>& train,
                  const embed::TextEmbedder& embedder, TextOf text_of,
                  embed::RetrievalIndex* index) {
  std::vector<std::string> texts;
  std::vector<embed::SparseRow> embedded;
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> repeats;
  std::unordered_set<std::string_view> seen;
  for (std::size_t begin = 0; begin < train.size();
       begin += kEmbedBatchRows) {
    const std::size_t rows = std::min(kEmbedBatchRows, train.size() - begin);
    texts.resize(rows);
    embedded.resize(rows);
    ParallelFor(rows,
                [&](std::size_t i) { texts[i] = text_of(train[begin + i]); });
    firsts.clear();
    repeats.clear();
    seen.clear();
    for (std::size_t i = 0; i < rows; ++i) {
      (seen.insert(texts[i]).second ? firsts : repeats).push_back(i);
    }
    for (const std::vector<std::size_t>* pass : {&firsts, &repeats}) {
      ParallelFor(pass->size(), [&](std::size_t j) {
        const std::size_t i = (*pass)[j];
        embedded[i] = embedder.Embed(texts[i]);
      });
    }
    for (std::size_t i = 0; i < rows; ++i) index->Add(embedded[i]);
  }
  index->Seal();
}

}  // namespace

ExampleIndex::ExampleIndex(const std::vector<dataset::Example>* train,
                           const embed::TextEmbedder* embedder,
                           embed::RetrievalConfig config)
    : train_(train), embedder_(embedder), index_(config) {
  EmbedLibrary(
      *train_, *embedder_,
      [](const dataset::Example& ex) -> const std::string& { return ex.nlq; },
      &index_);
}

std::vector<ExampleIndex::Hit> ExampleIndex::TopK(const std::string& nlq,
                                                  std::size_t k) const {
  std::vector<Hit> out;
  const embed::SparseRow query = embedder_->Embed(nlq);
  for (const embed::VectorStore::Hit& hit : index_.TopK(query, k)) {
    out.push_back(Hit{&(*train_)[hit.index], hit.score, hit.index});
  }
  return out;
}

DvqIndex::DvqIndex(const std::vector<dataset::Example>* train,
                   const embed::TextEmbedder* embedder,
                   embed::RetrievalConfig config)
    : train_(train), embedder_(embedder), index_(config) {
  EmbedLibrary(
      *train_, *embedder_,
      [](const dataset::Example& ex) { return ex.DvqText(); }, &index_);
}

std::vector<DvqIndex::Hit> DvqIndex::TopK(const std::string& dvq_text,
                                          std::size_t k) const {
  std::vector<Hit> out;
  const embed::SparseRow query = embedder_->Embed(dvq_text);
  for (const embed::VectorStore::Hit& hit : index_.TopK(query, k)) {
    out.push_back(Hit{&(*train_)[hit.index], hit.score, hit.index});
  }
  return out;
}

}  // namespace gred::models
