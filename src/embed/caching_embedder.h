#ifndef GREDVIS_EMBED_CACHING_EMBEDDER_H_
#define GREDVIS_EMBED_CACHING_EMBEDDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "embed/embedder.h"

namespace gred::embed {

/// Thread-safe memoizing wrapper around a deterministic TextEmbedder.
///
/// Entries are the inner embedder's sparse rows, kept as they come
/// (exactly sized, ~600 bytes for a 512-dimension hash embedding rather
/// than a 2 KiB dense vector); a hit returns a copy of the row. The cache
/// is unbounded: every distinct text stays resident for the embedder's
/// lifetime.
///
/// GRED does not use it: its libraries embed each distinct text once
/// (models::LibraryIndex) and its queries cost a few microseconds to
/// embed afresh. It serves callers that re-embed the same texts on
/// purpose, such as a replay that times TopK apart from embedding. The
/// cache is sharded by text fingerprint (FNV-1a), so concurrent threads
/// rarely contend on the same mutex; entries verify the full text on hit,
/// so a fingerprint collision falls back to computing (never returns the
/// wrong embedding). Misses compute outside the shard lock — the inner
/// embedder must be deterministic (all of ours are), making a double
/// compute harmless.
class CachingEmbedder : public TextEmbedder {
 public:
  /// Wraps `inner` (owned).
  explicit CachingEmbedder(std::unique_ptr<TextEmbedder> inner,
                           std::size_t num_shards = 16);

  SparseRow Embed(const std::string& text) const override;
  std::size_t dimension() const override { return inner_->dimension(); }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const;

 private:
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::pair<std::string, SparseRow>> cache;
  };

  std::unique_ptr<TextEmbedder> inner_;
  mutable std::vector<Shard> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace gred::embed

#endif  // GREDVIS_EMBED_CACHING_EMBEDDER_H_
