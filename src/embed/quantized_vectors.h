#ifndef GREDVIS_EMBED_QUANTIZED_VECTORS_H_
#define GREDVIS_EMBED_QUANTIZED_VECTORS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "embed/aligned_buffer.h"
#include "embed/embedder.h"

namespace gred::embed {

/// Scalar (per-vector, asymmetric) int8 quantization of an embedding
/// library: each float row x is stored as uint8 codes c with
///   x_i  ≈  offset + scale * c_i,   c_i = round((x_i - min) / scale),
/// offset = min(x), scale = (max(x) - min(x)) / 255. A constant row
/// (max == min, including all-zero rows) quantizes to scale 0 / all
/// codes 0, reconstructing exactly.
///
/// The point is the scan: an approximate dot product against a
/// quantized query touches 1 byte per dimension instead of 4 and runs
/// on the exact integer kernel (DotCodes),
///   dot(x, y) ≈ sx*sy*Σ cx_i*cy_i + sx*oy*Σ cx_i + sy*ox*Σ cy_i
///               + d*ox*oy,
/// with the per-row code sum Σ cx_i precomputed at append time. The
/// error per dimension is bounded by scale/2 ≈ (max-min)/510 per side;
/// for L2-normalized rows that keeps the score error well below 1e-2 —
/// enough to rank a shortlist, never enough to be served directly.
/// Callers therefore always re-rank a widened shortlist with the exact
/// float kernel (IvfIndex's quantized_scan); the quantized score never
/// leaves the scan.
///
/// Codes live in one contiguous 32-byte-aligned buffer at a stride
/// rounded to kRowAlignBytes, mirroring FlatVectors' layout; row metadata
/// (scale, offset, code sum, true dimension) is SoA alongside.
class QuantizedVectors {
 public:
  /// A query quantized once per search against this store's geometry.
  struct Query {
    std::vector<std::uint8_t, AlignedAllocator<std::uint8_t>> codes;
    float offset = 0.0f;
    float scale = 0.0f;
    std::int64_t code_sum = 0;
    std::size_t dim = 0;
  };

  /// Quantizes and appends `dim` floats (a FlatVectors row prefix);
  /// returns the row index. `dim` must not exceed kMaxCodeDot.
  std::size_t Append(const float* row, std::size_t dim);

  /// Quantizes a (normalized) query with the same scheme.
  static Query QuantizeQuery(const Vector& q);

  /// Approximate dot of stored row `i` against the quantized query.
  /// Follows the CosineSimilarity contract: a dimension mismatch (or an
  /// empty query) scores exactly 0. Deterministic: integer dot plus a
  /// fixed-order double reconstruction.
  double ApproxDot(std::size_t i, const Query& q) const;

  std::size_t size() const { return dims_.size(); }
  std::size_t stride() const { return stride_; }
  bool empty() const { return dims_.empty(); }

 private:
  std::vector<std::uint8_t, AlignedAllocator<std::uint8_t>> codes_;
  std::vector<float> scales_;
  std::vector<float> offsets_;
  std::vector<std::int32_t> code_sums_;
  std::vector<std::uint32_t> dims_;
  std::size_t stride_ = 0;
};

}  // namespace gred::embed

#endif  // GREDVIS_EMBED_QUANTIZED_VECTORS_H_
