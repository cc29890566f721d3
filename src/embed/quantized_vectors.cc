#include "embed/quantized_vectors.h"

#include <algorithm>
#include <cassert>

#include "embed/kernel.h"

namespace gred::embed {

namespace {

/// Quantizes `dim` floats into `out` (already sized >= dim, zero-padded
/// past dim) and returns {offset, scale, code_sum}. Deterministic: plain
/// IEEE float arithmetic, truncating round-half-up on the non-negative
/// normalized values.
struct RowParams {
  float offset = 0.0f;
  float scale = 0.0f;
  std::int64_t code_sum = 0;
};

RowParams QuantizeRow(const float* x, std::size_t dim, std::uint8_t* out) {
  RowParams p;
  if (dim == 0) return p;
  float mn = x[0];
  float mx = x[0];
  for (std::size_t i = 1; i < dim; ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  p.offset = mn;
  if (mx == mn) {
    // Constant row (including all-zero rows): scale 0, all codes 0,
    // reconstruction offset + 0*c == the exact value.
    return p;
  }
  p.scale = (mx - mn) / 255.0f;
  const float inv = 255.0f / (mx - mn);
  for (std::size_t i = 0; i < dim; ++i) {
    const float t = (x[i] - mn) * inv;  // in [0, 255] up to rounding
    int code = static_cast<int>(t + 0.5f);
    code = std::clamp(code, 0, 255);
    out[i] = static_cast<std::uint8_t>(code);
    p.code_sum += code;
  }
  return p;
}

}  // namespace

std::size_t QuantizedVectors::Append(const float* row, std::size_t dim) {
  assert(dim <= kMaxCodeDot && "quantized row exceeds DotCodes bound");
  const std::size_t needed = AlignedStride(dim, sizeof(std::uint8_t));
  if (needed > stride_) {
    // Re-pack at the wider stride (mixed-dimension stores only; the
    // embedders emit a fixed dimension).
    std::vector<std::uint8_t, AlignedAllocator<std::uint8_t>> wider(
        dims_.size() * needed, 0);
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      std::copy_n(codes_.data() + i * stride_, stride_,
                  wider.data() + i * needed);
    }
    codes_ = std::move(wider);
    stride_ = needed;
  }
  const std::size_t index = dims_.size();
  codes_.resize(codes_.size() + stride_, 0);
  const RowParams p = QuantizeRow(row, dim, codes_.data() + index * stride_);
  scales_.push_back(p.scale);
  offsets_.push_back(p.offset);
  code_sums_.push_back(static_cast<std::int32_t>(p.code_sum));
  dims_.push_back(static_cast<std::uint32_t>(dim));
  return index;
}

QuantizedVectors::Query QuantizedVectors::QuantizeQuery(const Vector& q) {
  Query out;
  out.dim = q.size();
  out.codes.assign(AlignedStride(q.size(), sizeof(std::uint8_t)), 0);
  const RowParams p = QuantizeRow(q.data(), q.size(), out.codes.data());
  out.offset = p.offset;
  out.scale = p.scale;
  out.code_sum = p.code_sum;
  return out;
}

double QuantizedVectors::ApproxDot(std::size_t i, const Query& q) const {
  if (dims_[i] != q.dim || q.dim == 0) return 0.0;
  // Both rows are zero-padded to at least this aligned length, so the
  // integer dot can run over whole alignment units: padding contributes
  // zero products.
  const std::size_t n = AlignedStride(q.dim, sizeof(std::uint8_t));
  const std::int64_t dot =
      DotCodes(codes_.data() + i * stride_, q.codes.data(), n);
  // dot(x, y) = Σ (ox + sx*cx)(oy + sy*cy), expanded; fixed evaluation
  // order in double keeps the reconstruction deterministic everywhere.
  const double sx = scales_[i];
  const double ox = offsets_[i];
  const double sy = q.scale;
  const double oy = q.offset;
  return sx * sy * static_cast<double>(dot) +
         sx * oy * static_cast<double>(code_sums_[i]) +
         sy * ox * static_cast<double>(q.code_sum) +
         static_cast<double>(q.dim) * ox * oy;
}

}  // namespace gred::embed
