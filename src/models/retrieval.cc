#include "models/retrieval.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "embed/kernel.h"
#include "util/thread_pool.h"

namespace gred::models {

namespace {

/// Rows read per batch: bounds the texts and sparse rows held at once
/// while each batch still splits across every core.
constexpr std::size_t kEmbedBatchRows = 1024;

}  // namespace

LibraryIndex::LibraryIndex(const std::vector<dataset::Example>* train,
                           const embed::TextEmbedder* embedder,
                           TextOf text_of, embed::RetrievalConfig config)
    : train_(train), embedder_(embedder), index_(config) {
  // Each batch renders its texts in parallel, folds them into the
  // groups on this thread, embeds the batch's new texts in parallel and
  // adds them in order of first occurrence.
  std::unordered_map<std::string, std::size_t> groups;
  std::vector<std::size_t> group_of(train->size());
  std::vector<std::string> texts;
  std::vector<const std::string*> fresh;
  std::vector<embed::SparseRow> embedded;
  for (std::size_t begin = 0; begin < train->size();
       begin += kEmbedBatchRows) {
    const std::size_t rows = std::min(kEmbedBatchRows, train->size() - begin);
    texts.resize(rows);
    ParallelFor(rows, [&](std::size_t i) {
      texts[i] = text_of((*train)[begin + i]);
    });
    fresh.clear();
    for (std::size_t i = 0; i < rows; ++i) {
      const auto [it, inserted] =
          groups.try_emplace(std::move(texts[i]), groups.size());
      group_of[begin + i] = it->second;
      if (inserted) fresh.push_back(&it->first);
    }
    embedded.resize(fresh.size());
    ParallelFor(fresh.size(), [&](std::size_t j) {
      embedded[j] = embedder->Embed(*fresh[j]);
    });
    for (const embed::SparseRow& row : embedded) index_.Add(row);
  }
  index_.Seal();

  // Counting sort of the training rows by group: ascending within each.
  group_begin_.assign(groups.size() + 1, 0);
  for (std::size_t g : group_of) ++group_begin_[g + 1];
  std::partial_sum(group_begin_.begin(), group_begin_.end(),
                   group_begin_.begin());
  std::vector<std::size_t> next(group_begin_.begin(), group_begin_.end() - 1);
  members_.resize(group_of.size());
  for (std::size_t row = 0; row < group_of.size(); ++row) {
    members_[next[group_of[row]]++] = row;
  }
}

std::vector<LibraryIndex::Hit> LibraryIndex::TopK(const std::string& text,
                                                  std::size_t k) const {
  const embed::SparseRow query = embedder_->Embed(text);
  // A group's members tie on score and ascend, so no more than its first
  // k can place.
  std::vector<embed::Hit> rows;
  for (const embed::Hit& group : index_.TopK(query, k)) {
    const std::size_t begin = group_begin_[group.index];
    const std::size_t end =
        begin + std::min(k, group_begin_[group.index + 1] - begin);
    for (std::size_t m = begin; m < end; ++m) {
      rows.push_back(embed::Hit{members_[m], group.score});
    }
  }
  std::sort(rows.begin(), rows.end(), embed::HitBetter);
  rows.resize(std::min(k, rows.size()));
  std::vector<Hit> out;
  out.reserve(rows.size());
  for (const embed::Hit& row : rows) {
    out.push_back(Hit{&(*train_)[row.index], row.score, row.index});
  }
  return out;
}

ExampleIndex::ExampleIndex(const std::vector<dataset::Example>* train,
                           const embed::TextEmbedder* embedder,
                           embed::RetrievalConfig config)
    : LibraryIndex(
          train, embedder,
          [](const dataset::Example& ex) { return ex.nlq; }, config) {}

DvqIndex::DvqIndex(const std::vector<dataset::Example>* train,
                   const embed::TextEmbedder* embedder,
                   embed::RetrievalConfig config)
    : LibraryIndex(
          train, embedder,
          [](const dataset::Example& ex) { return ex.DvqText(); }, config) {}

}  // namespace gred::models
