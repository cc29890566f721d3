#include "models/seq2vis.h"

#include <cctype>

#include "models/linking.h"
#include "nl/text.h"
#include "util/strings.h"

namespace gred::models {

namespace {

bool IsNumberToken(const std::string& token) {
  for (char c : token) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '.') {
      return false;
    }
  }
  return !token.empty();
}

}  // namespace

Seq2Vis::Seq2Vis(const TrainingCorpus& corpus) : train_(corpus.train) {
  // Word-level recognition only: an LSTM over word embeddings has no
  // subword units, so out-of-vocabulary paraphrases derail it. (The
  // Transformer baseline keeps character-trigram features, its BPE
  // analogue.)
  embed::EmbedderOptions options;
  options.trigram_weight = 0.0;
  embedder_ = std::make_unique<embed::LexicalHashEmbedder>(options);
  for (const dataset::Example& ex : *corpus.train) {
    for (const std::string& token : nl::Tokenize(ex.nlq)) {
      if (!IsNumberToken(token)) vocabulary_.insert(nl::Stem(token));
    }
  }
  // The memory is encoded exactly like the query will be.
  for (const dataset::Example& ex : *corpus.train) {
    store_.Add(embed::Densify(embedder_->Embed(Encode(ex.nlq))));
  }
}

std::string Seq2Vis::Encode(const std::string& nlq) const {
  std::vector<std::string> tokens = nl::Tokenize(nlq);
  std::string encoded;
  for (const std::string& token : tokens) {
    if (IsNumberToken(token)) {
      encoded += "numnumnum";  // delexicalized number
    } else if (vocabulary_.count(nl::Stem(token)) > 0) {
      encoded += token;
    } else {
      encoded += "unkunkunk";  // shared OOV embedding
    }
    encoded += ' ';
  }
  return encoded;
}

Result<dvq::DVQ> Seq2Vis::Translate(const std::string& nlq,
                                    const storage::DatabaseData& db) const {
  (void)db;  // Seq2Vis decodes from memory; the schema plays no role.
  std::vector<embed::VectorStore::Hit> hits =
      store_.TopK(embed::Densify(embedder_->Embed(Encode(nlq))), 1);
  if (hits.empty()) {
    return Status::NotFound("Seq2Vis: empty training memory");
  }
  dvq::DVQ out = (*train_)[hits[0].index].dvq;
  AdaptLiterals(&out.query, ExtractSurfaceValues(nlq));
  return out;
}

}  // namespace gred::models
