#include "embed/caching_embedder.h"

#include <utility>

#include "util/rng.h"

namespace gred::embed {

CachingEmbedder::CachingEmbedder(std::unique_ptr<TextEmbedder> inner,
                                 std::size_t num_shards)
    : inner_(std::move(inner)),
      shards_(num_shards == 0 ? 1 : num_shards) {}

SparseRow CachingEmbedder::Embed(const std::string& text) const {
  const std::uint64_t fingerprint = Fnv1a64(text);
  Shard& shard =
      shards_[static_cast<std::size_t>(fingerprint % shards_.size())];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.cache.find(fingerprint);
    if (it != shard.cache.end() && it->second.first == text) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.second;
    }
  }
  // Miss (or fingerprint collision): compute outside the lock so slow
  // embeds never serialize other shard traffic; first insert wins.
  misses_.fetch_add(1, std::memory_order_relaxed);
  SparseRow row = inner_->Embed(text);
  std::lock_guard<std::mutex> lock(shard.mu);
  // A resident entry (a racing first touch, or a genuine 64-bit
  // collision) stays; either way this call returns its own computation,
  // which the deterministic inner embedder makes equal to any entry for
  // the same text.
  shard.cache.try_emplace(fingerprint, text, row);
  return row;
}

CachingEmbedder::Stats CachingEmbedder::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gred::embed
