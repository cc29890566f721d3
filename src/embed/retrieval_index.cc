#include "embed/retrieval_index.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gred::embed {

namespace {

/// Strict env integer: unset returns `fallback`; anything that does not
/// parse as a non-negative integer exits(2). Mirrors the bench layer's
/// EnvSizeOrDie, which lives above this library.
std::size_t EnvSizeOrDie(const char* name, std::size_t fallback,
                         bool allow_zero) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  const bool bad_zero = !allow_zero && parsed == 0;
  if (end == value || *end != '\0' || bad_zero ||
      std::strchr(value, '-') != nullptr) {
    std::fprintf(stderr, "%s=%s is not a valid %spositive integer\n", name,
                 value, allow_zero ? "zero-or-" : "strictly ");
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

const char* RetrievalBackendName(RetrievalBackend backend) {
  switch (backend) {
    case RetrievalBackend::kExact:
      return "exact";
    case RetrievalBackend::kQuantized:
      return "quantized";
    case RetrievalBackend::kIvf:
      return "ivf";
  }
  return "unknown";
}

RetrievalConfig RetrievalConfig::FromEnv() {
  RetrievalConfig config;
  const char* backend = std::getenv("GRED_RETRIEVAL_BACKEND");
  if (backend != nullptr && *backend != '\0') {
    if (std::strcmp(backend, "exact") == 0) {
      config.backend = RetrievalBackend::kExact;
    } else if (std::strcmp(backend, "quantized") == 0) {
      config.backend = RetrievalBackend::kQuantized;
    } else if (std::strcmp(backend, "ivf") == 0) {
      config.backend = RetrievalBackend::kIvf;
    } else {
      std::fprintf(stderr,
                   "GRED_RETRIEVAL_BACKEND=%s is not a retrieval backend "
                   "(exact, quantized, ivf)\n",
                   backend);
      std::exit(2);
    }
  }
  config.rerank_factor = EnvSizeOrDie("GRED_RETRIEVAL_RERANK", 4, false);
  config.ivf.num_probes = EnvSizeOrDie("GRED_RETRIEVAL_PROBES", 8, false);
  config.ivf.num_clusters =
      EnvSizeOrDie("GRED_RETRIEVAL_CLUSTERS", 0, true);  // 0 = auto sqrt(n)
  // The env-configured IVF backend is the production shape: int8 list
  // scans with an exact re-rank sharing the quantized backend's widening.
  config.ivf.quantized_scan = true;
  config.ivf.rerank_factor = config.rerank_factor;
  config.ivf.rerank_slack = config.rerank_slack;
  return config;
}

RetrievalIndex::RetrievalIndex(RetrievalConfig config)
    : config_(config), ivf_(config.ivf) {}

std::size_t RetrievalIndex::Add(Vector v) {
  switch (config_.backend) {
    case RetrievalBackend::kQuantized: {
      const std::size_t index = store_.Add(std::move(v));
      // Shadow the new row immediately: quantization is O(dim) per row
      // and keeping the codes in lockstep makes TopK valid at any point.
      store_.EnsureQuantized();
      return index;
    }
    case RetrievalBackend::kIvf:
      return ivf_.Add(std::move(v));
    case RetrievalBackend::kExact:
      break;
  }
  return postings_.Add(std::move(v));
}

void RetrievalIndex::Seal() {
  switch (config_.backend) {
    case RetrievalBackend::kExact:
      break;
    case RetrievalBackend::kQuantized:
      store_.EnsureQuantized();
      break;
    case RetrievalBackend::kIvf:
      ivf_.Build();
      break;
  }
}

std::vector<Hit> RetrievalIndex::TopK(const Vector& query,
                                      std::size_t k) const {
  switch (config_.backend) {
    case RetrievalBackend::kQuantized:
      return store_.TopKQuantized(
          query, k,
          ShortlistSize(k, store_.size(), config_.rerank_factor,
                        config_.rerank_slack));
    case RetrievalBackend::kIvf:
      return ivf_.TopK(query, k);
    case RetrievalBackend::kExact:
      break;
  }
  return postings_.TopK(query, k);
}

std::size_t RetrievalIndex::size() const {
  switch (config_.backend) {
    case RetrievalBackend::kQuantized:
      return store_.size();
    case RetrievalBackend::kIvf:
      return ivf_.size();
    case RetrievalBackend::kExact:
      break;
  }
  return postings_.size();
}

}  // namespace gred::embed
