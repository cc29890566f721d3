#include "embed/embedder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "nl/text.h"
#include "util/rng.h"

namespace gred::embed {

double CosineSimilarity(const Vector& a, const Vector& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

void CheckSparseRow(const SparseRow& row) {
  bool ok = row.values.size() == row.nnz();
  for (std::size_t i = 0; ok && i < row.nnz(); ++i) {
    ok = row.dims[i] < row.dimension &&
         (i == 0 || row.dims[i - 1] < row.dims[i]);
  }
  if (!ok) {
    std::fprintf(stderr,
                 "SparseRow: %zu dims, %zu values at dimension %u are not "
                 "strictly ascending dims below the dimension, one value "
                 "each\n",
                 row.nnz(), row.values.size(), row.dimension);
    std::abort();
  }
}

Vector Densify(const SparseRow& row) {
  CheckSparseRow(row);
  Vector out(row.dimension, 0.0f);
  for (std::size_t i = 0; i < row.nnz(); ++i) out[row.dims[i]] = row.values[i];
  return out;
}

float InverseNorm(const std::vector<float>& values) {
  double norm = 0.0;
  for (float x : values) norm += static_cast<double>(x) * x;
  // Scaling by exactly 1 leaves every entry's bits alone, -0 included.
  return norm == 0.0 ? 1.0f : static_cast<float>(1.0 / std::sqrt(norm));
}

void L2Normalize(Vector* v) {
  const float inv = InverseNorm(*v);
  for (float& x : *v) x *= inv;
}

void L2Normalize(SparseRow* row) {
  const float inv = InverseNorm(row->values);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < row->nnz(); ++i) {
    const float x = row->values[i] * inv;
    if (x == 0.0f) continue;
    row->dims[kept] = row->dims[i];
    row->values[kept] = x;
    ++kept;
  }
  row->dims.resize(kept);
  row->values.resize(kept);
}

namespace {

/// Per-thread feature buckets: the float sums, and a bitmap of the
/// buckets this call touched, so that extraction visits only those (in
/// ascending order) instead of scanning every dimension. Both are reset
/// at the start of each call. Reused across calls, so an embed allocates
/// only its output row.
struct Buckets {
  std::vector<float> sums;
  std::vector<std::uint64_t> touched;
};

Buckets& BucketScratch(std::size_t dimension) {
  thread_local Buckets scratch;
  const std::size_t words = (dimension + 63) / 64;
  if (scratch.sums.size() < dimension) scratch.sums.resize(dimension);
  if (scratch.touched.size() < words) scratch.touched.resize(words);
  std::fill(scratch.sums.begin(), scratch.sums.begin() + dimension, 0.0f);
  std::fill(scratch.touched.begin(), scratch.touched.begin() + words, 0);
  return scratch;
}

/// Adds one hashed feature with a hash-derived sign (feature hashing with
/// signed buckets keeps collisions unbiased) to one of the `dimension`
/// buckets. `h` is the FNV-1a hash of the full prefixed feature string.
void AddFeatureHash(std::uint64_t h, double weight, std::size_t dimension,
                    Buckets* buckets) {
  std::size_t bucket = static_cast<std::size_t>(h % dimension);
  float sign = (h >> 63) != 0 ? -1.0f : 1.0f;
  buckets->sums[bucket] += sign * static_cast<float>(weight);
  buckets->touched[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
}

/// Calls `fn(bucket)` for every touched bucket of the first `dimension`,
/// in ascending order.
template <typename Fn>
void ForEachTouched(const Buckets& buckets, std::size_t dimension, Fn fn) {
  for (std::size_t w = 0; w * 64 < dimension; ++w) {
    for (std::uint64_t bits = buckets.touched[w]; bits != 0;
         bits &= bits - 1) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

// FNV-1a folds bytes left to right, so hashing a feature's payload from
// the pre-hashed prefix state is bit-identical to hashing the
// concatenated "prefix + payload" string — same buckets, same signs as
// the seed implementation — without materializing the temporary.
const std::uint64_t kTokPrefix = Fnv1a64("tok:", 4);
const std::uint64_t kConPrefix = Fnv1a64("con:", 4);
const std::uint64_t kTriPrefix = Fnv1a64("tri:", 4);

}  // namespace

SemanticHashEmbedder::SemanticHashEmbedder(const nl::Lexicon* lexicon,
                                           EmbedderOptions options)
    : lexicon_(lexicon), options_(options) {
  if (options_.dimension == 0 || options_.dimension > kMaxSparseDimension) {
    std::fprintf(stderr,
                 "SemanticHashEmbedder: dimension %zu not in [1, %zu]\n",
                 options_.dimension, kMaxSparseDimension);
    std::abort();
  }
}

SemanticHashEmbedder::SemanticHashEmbedder()
    : SemanticHashEmbedder(&nl::Lexicon::Default(), EmbedderOptions()) {}

SparseRow SemanticHashEmbedder::Embed(const std::string& text) const {
  const std::size_t dimension = options_.dimension;
  Buckets& buckets = BucketScratch(dimension);
  std::vector<std::string> tokens = nl::Tokenize(text);
  // Per-call scratch for the stem: its capacity is reused across the
  // token loop, so after the first few tokens the loop allocates nothing
  // (features are hashed by FNV continuation, never concatenated).
  std::string stem;
  for (const std::string& token : tokens) {
    if (nl::IsStopword(token)) continue;
    const bool want_concept =
        options_.concept_weight > 0.0 && lexicon_ != nullptr;
    if (options_.token_weight > 0.0 || want_concept) {
      nl::StemInto(token, &stem);
    }
    if (options_.token_weight > 0.0) {
      AddFeatureHash(Fnv1a64Continue(kTokPrefix, stem),
                     options_.token_weight, dimension, &buckets);
    }
    if (want_concept) {
      int idx = lexicon_->ConceptIndexOfStem(stem);
      if (idx >= 0) {
        const std::string& concept_id =
            lexicon_->concepts()[static_cast<std::size_t>(idx)].id;
        AddFeatureHash(Fnv1a64Continue(kConPrefix, concept_id),
                       options_.concept_weight, dimension, &buckets);
      }
    }
  }
  if (options_.trigram_weight > 0.0) {
    std::string joined;
    std::size_t total = 0;
    for (const std::string& token : tokens) total += token.size() + 1;
    joined.reserve(total);
    for (const std::string& token : tokens) {
      joined += token;
      joined += ' ';
    }
    if (joined.size() >= 3) {
      for (std::size_t i = 0; i + 3 <= joined.size(); ++i) {
        AddFeatureHash(Fnv1a64Continue(kTriPrefix, joined.data() + i, 3),
                       options_.trigram_weight, dimension, &buckets);
      }
    }
  }
  // A bucket whose features cancel sums to +0 and is dropped like the
  // untouched ones. Counting first sizes the row exactly.
  const std::vector<float>& sums = buckets.sums;
  std::size_t nnz = 0;
  ForEachTouched(buckets, dimension,
                 [&](std::size_t d) { nnz += sums[d] != 0.0f; });
  SparseRow row;
  row.dimension = static_cast<std::uint32_t>(dimension);
  row.dims.reserve(nnz);
  row.values.reserve(nnz);
  ForEachTouched(buckets, dimension, [&](std::size_t d) {
    if (sums[d] == 0.0f) return;
    row.dims.push_back(static_cast<std::uint16_t>(d));
    row.values.push_back(sums[d]);
  });
  L2Normalize(&row);
  return row;
}

LexicalHashEmbedder::LexicalHashEmbedder(EmbedderOptions options)
    : impl_(nullptr, [&options] {
        EmbedderOptions lexical = options;
        lexical.concept_weight = 0.0;
        return lexical;
      }()) {}

SparseRow LexicalHashEmbedder::Embed(const std::string& text) const {
  return impl_.Embed(text);
}

}  // namespace gred::embed
