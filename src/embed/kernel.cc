#include "embed/kernel.h"

#if defined(GRED_KERNEL_AVX2)
#include <immintrin.h>
#endif
#if defined(GRED_KERNEL_NEON)
#include <arm_neon.h>
#endif

namespace gred::embed {

double DotBlocked(const float* a, const float* b, std::size_t n) {
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<double>(a[i]) * b[i];
    acc1 += static_cast<double>(a[i + 1]) * b[i + 1];
    acc2 += static_cast<double>(a[i + 2]) * b[i + 2];
    acc3 += static_cast<double>(a[i + 3]) * b[i + 3];
  }
  for (; i < n; ++i) {
    acc0 += static_cast<double>(a[i]) * b[i];
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

namespace {

/// Portable SIMD variant: the same four accumulator chains as
/// DotBlocked, with the lane loop annotated `#pragma omp simd` (active
/// under -fopenmp-simd, an ignored pragma otherwise). Each lane's chain
/// performs DotBlocked's exact add sequence, so however the compiler
/// lowers the annotation, the result is bit-identical.
double DotPortableSimd(const float* a, const float* b, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
#pragma omp simd
    for (int lane = 0; lane < 4; ++lane) {
      acc[lane] += static_cast<double>(a[i + static_cast<std::size_t>(lane)]) *
                   b[i + static_cast<std::size_t>(lane)];
    }
  }
  for (; i < n; ++i) {
    acc[0] += static_cast<double>(a[i]) * b[i];
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

std::int64_t DotCodesScalar(const std::uint8_t* a, const std::uint8_t* b,
                            std::size_t n) {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += static_cast<std::int64_t>(a[i]) * b[i];
  }
  return sum;
}

#if defined(GRED_KERNEL_AVX2)

/// AVX2 float dot: DotBlocked's four accumulator chains live in the four
/// lanes of one __m256d. The float->double product is exact (24-bit
/// mantissas multiply into <= 48 bits, double holds 53), so the fused
/// multiply-add performs exactly one rounding — the add — just like
/// DotBlocked's `acc += double(a) * b`. Tail elements fold into lane 0
/// and the reduction is (l0+l1)+(l2+l3): bit-identical by construction.
__attribute__((target("avx2,fma"))) double DotAvx2(const float* a,
                                                   const float* b,
                                                   std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Two sequenced fmadds into the same accumulator: lane j still sums
    // elements j, j+4, j+8, ... in DotBlocked's order.
    acc = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                          _mm256_cvtps_pd(_mm_loadu_ps(b + i)), acc);
    acc = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                          _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)), acc);
  }
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                          _mm256_cvtps_pd(_mm_loadu_ps(b + i)), acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) {
    lane[0] += static_cast<double>(a[i]) * b[i];
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

/// AVX2 code dot: 16 uint8 codes widen to int16, _mm256_madd_epi16
/// multiply-accumulates adjacent pairs into int32 lanes. Each step adds
/// at most 2*255*255 per lane, so kMaxCodeDot rows cannot overflow the
/// lanes; the final reduction widens to int64. Exact integer arithmetic:
/// bit-identical to the scalar loop for free.
__attribute__((target("avx2"))) std::int64_t DotCodesAvx2(
    const std::uint8_t* a, const std::uint8_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vb = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
  }
  alignas(32) std::int32_t lane[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), acc);
  std::int64_t sum = 0;
  for (std::int32_t l : lane) sum += l;
  for (; i < n; ++i) {
    sum += static_cast<std::int64_t>(a[i]) * b[i];
  }
  return sum;
}

bool Avx2Supported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // GRED_KERNEL_AVX2

#if defined(GRED_KERNEL_NEON)

/// NEON float dot: DotBlocked's four chains live in two float64x2
/// accumulators (lanes 0-1 and 2-3). vfmaq_f64 fuses the exact
/// float->double product with the add, one rounding per element, same
/// as the scalar chains; tail folds into lane 0, reduction is
/// (l0+l1)+(l2+l3).
double DotNeon(const float* a, const float* b, std::size_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t va = vld1q_f32(a + i);
    const float32x4_t vb = vld1q_f32(b + i);
    acc01 = vfmaq_f64(acc01, vcvt_f64_f32(vget_low_f32(va)),
                      vcvt_f64_f32(vget_low_f32(vb)));
    acc23 = vfmaq_f64(acc23, vcvt_f64_f32(vget_high_f32(va)),
                      vcvt_f64_f32(vget_high_f32(vb)));
  }
  double l0 = vgetq_lane_f64(acc01, 0);
  const double l1 = vgetq_lane_f64(acc01, 1);
  const double l2 = vgetq_lane_f64(acc23, 0);
  const double l3 = vgetq_lane_f64(acc23, 1);
  for (; i < n; ++i) {
    l0 += static_cast<double>(a[i]) * b[i];
  }
  return (l0 + l1) + (l2 + l3);
}

/// NEON code dot: 16 uint8 codes per step through the widening
/// multiply-accumulate; exact integer arithmetic.
std::int64_t DotCodesNeon(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t n) {
  uint32x4_t acc = vdupq_n_u32(0);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t va = vld1q_u8(a + i);
    const uint8x16_t vb = vld1q_u8(b + i);
    const uint16x8_t lo = vmull_u8(vget_low_u8(va), vget_low_u8(vb));
    const uint16x8_t hi = vmull_u8(vget_high_u8(va), vget_high_u8(vb));
    acc = vpadalq_u16(acc, lo);
    acc = vpadalq_u16(acc, hi);
  }
  std::int64_t sum = static_cast<std::int64_t>(vaddvq_u32(acc));
  for (; i < n; ++i) {
    sum += static_cast<std::int64_t>(a[i]) * b[i];
  }
  return sum;
}

#endif  // GRED_KERNEL_NEON

/// Picks the fastest supported target (called once).
DotTarget ResolveActiveTarget() {
  const std::vector<DotTarget> supported = SupportedDotTargets();
  // Preference order: vector ISAs, then the portable variant (it at
  // least permits compiler vectorization), then scalar.
  for (DotTarget want : {DotTarget::kAvx2, DotTarget::kNeon,
                         DotTarget::kPortable, DotTarget::kScalar}) {
    for (DotTarget t : supported) {
      if (t == want) return t;
    }
  }
  return DotTarget::kScalar;  // unreachable: kScalar is always supported
}

DotTarget ActiveTargetOnce() {
  static const DotTarget kActive = ResolveActiveTarget();
  return kActive;
}

}  // namespace

const char* DotTargetName(DotTarget target) {
  switch (target) {
    case DotTarget::kScalar:
      return "scalar";
    case DotTarget::kPortable:
      return "portable";
    case DotTarget::kAvx2:
      return "avx2";
    case DotTarget::kNeon:
      return "neon";
  }
  return "unknown";
}

std::vector<DotTarget> SupportedDotTargets() {
  std::vector<DotTarget> targets{DotTarget::kScalar, DotTarget::kPortable};
#if defined(GRED_KERNEL_AVX2)
  if (Avx2Supported()) targets.push_back(DotTarget::kAvx2);
#endif
#if defined(GRED_KERNEL_NEON)
  targets.push_back(DotTarget::kNeon);
#endif
  return targets;
}

DotTarget ActiveDotTarget() { return ActiveTargetOnce(); }

double DotWithTarget(DotTarget target, const float* a, const float* b,
                     std::size_t n) {
  switch (target) {
    case DotTarget::kScalar:
      return DotBlocked(a, b, n);
    case DotTarget::kPortable:
      return DotPortableSimd(a, b, n);
#if defined(GRED_KERNEL_AVX2)
    case DotTarget::kAvx2:
      return DotAvx2(a, b, n);
#endif
#if defined(GRED_KERNEL_NEON)
    case DotTarget::kNeon:
      return DotNeon(a, b, n);
#endif
    default:
      return DotBlocked(a, b, n);
  }
}

double Dot(const float* a, const float* b, std::size_t n) {
  return DotWithTarget(ActiveTargetOnce(), a, b, n);
}

std::int64_t DotCodesWithTarget(DotTarget target, const std::uint8_t* a,
                                const std::uint8_t* b, std::size_t n) {
  switch (target) {
#if defined(GRED_KERNEL_AVX2)
    case DotTarget::kAvx2:
      return DotCodesAvx2(a, b, n);
#endif
#if defined(GRED_KERNEL_NEON)
    case DotTarget::kNeon:
      return DotCodesNeon(a, b, n);
#endif
    default:
      return DotCodesScalar(a, b, n);
  }
}

std::int64_t DotCodes(const std::uint8_t* a, const std::uint8_t* b,
                      std::size_t n) {
  return DotCodesWithTarget(ActiveTargetOnce(), a, b, n);
}

}  // namespace gred::embed
