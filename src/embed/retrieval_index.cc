#include "embed/retrieval_index.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/env.h"

namespace gred::embed {

const char* RetrievalBackendName(RetrievalBackend backend) {
  switch (backend) {
    case RetrievalBackend::kExact:
      return "exact";
    case RetrievalBackend::kIvf:
      return "ivf";
  }
  return "unknown";
}

RetrievalConfig RetrievalConfig::FromEnv() {
  RetrievalConfig config;
  const char* backend = std::getenv("GRED_RETRIEVAL_BACKEND");
  if (backend != nullptr) {
    if (std::strcmp(backend, "exact") == 0) {
      config.backend = RetrievalBackend::kExact;
    } else if (std::strcmp(backend, "ivf") == 0) {
      config.backend = RetrievalBackend::kIvf;
    } else {
      std::fprintf(stderr,
                   "GRED_RETRIEVAL_BACKEND=%s is not a retrieval backend "
                   "(exact, ivf)\n",
                   backend);
      std::exit(2);
    }
  }
  config.ivf.num_probes = EnvSizeOrDie("GRED_RETRIEVAL_PROBES", 8);
  config.ivf.num_clusters = static_cast<std::size_t>(
      EnvCountOrDie("GRED_RETRIEVAL_CLUSTERS", 0));  // 0 = auto sqrt(n)
  // The env-configured IVF backend is the production shape: int8 list
  // scans with an exact re-rank of a widened shortlist.
  config.ivf.quantized_scan = true;
  return config;
}

RetrievalIndex::RetrievalIndex(RetrievalConfig config)
    : config_(config), ivf_(config.ivf) {}

std::size_t RetrievalIndex::Add(const SparseRow& row) {
  if (config_.backend == RetrievalBackend::kIvf) return ivf_.Add(Densify(row));
  return postings_.Add(row);
}

void RetrievalIndex::Seal() {
  if (config_.backend == RetrievalBackend::kIvf) {
    ivf_.Build();
  } else {
    postings_.Seal();
  }
}

std::vector<Hit> RetrievalIndex::TopK(const SparseRow& query,
                                      std::size_t k) const {
  if (config_.backend == RetrievalBackend::kIvf) {
    return ivf_.TopK(Densify(query), k);
  }
  return postings_.TopK(query, k);
}

std::size_t RetrievalIndex::size() const {
  return config_.backend == RetrievalBackend::kIvf ? ivf_.size()
                                                   : postings_.size();
}

}  // namespace gred::embed
