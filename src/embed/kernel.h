#ifndef GREDVIS_EMBED_KERNEL_H_
#define GREDVIS_EMBED_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gred::embed {

/// One retrieval result: the insertion index of a stored vector and its
/// cosine similarity to the query. Shared by every retrieval store.
struct Hit {
  std::size_t index = 0;  // insertion index (payload handle)
  double score = 0.0;     // cosine similarity
};

/// Instruction-set targets the float dot kernel can dispatch to. Which
/// targets exist in a binary is decided at build time (CMake feature
/// detection defines GRED_KERNEL_AVX2 / GRED_KERNEL_NEON /
/// GRED_KERNEL_PORTABLE_SIMD); which one runs is decided once at startup
/// from CPU capabilities.
///
/// Every target computes the *same arithmetic DAG* as the scalar
/// reference DotBlocked — four independent double accumulator chains,
/// lane j summing elements j, j+4, j+8, ... in order, tail folded into
/// lane 0, final reduction (l0+l1)+(l2+l3) — so all targets return
/// bit-identical doubles. AVX2 maps the four chains onto one __m256d
/// accumulator (the float->double product is exact, so fused
/// multiply-add rounds exactly like multiply-then-add); NEON maps them
/// onto two float64x2 accumulators; the portable variant annotates the
/// four-lane inner loop with `#pragma omp simd` (compiled with
/// -fopenmp-simd when available, a no-op pragma otherwise).
enum class DotTarget {
  kScalar = 0,    // DotBlocked, always compiled
  kPortable = 1,  // omp-simd-annotated four-lane loop, always compiled
  kAvx2 = 2,      // x86 AVX2+FMA, compiled when the toolchain supports it
  kNeon = 3,      // aarch64 NEON, compiled when the toolchain supports it
};

/// Short stable name ("scalar", "portable", "avx2", "neon") used by
/// benchmark reports and test output.
const char* DotTargetName(DotTarget target);

/// Targets compiled into this binary AND supported by this CPU (AVX2 is
/// compiled in unconditionally on capable toolchains but only *runs*
/// when __builtin_cpu_supports agrees). kScalar is always present.
std::vector<DotTarget> SupportedDotTargets();

/// The target Dot() dispatches to: the fastest supported target,
/// decided once per process, thread-safely.
DotTarget ActiveDotTarget();

/// Dot product of `n` floats through the active SIMD target. The hot
/// entry point of every retrieval scan; bit-identical to DotBlocked on
/// every target by the DAG argument above.
double Dot(const float* a, const float* b, std::size_t n);

/// Dot through an explicit target (equivalence tests and benchmarks).
/// `target` must be in SupportedDotTargets().
double DotWithTarget(DotTarget target, const float* a, const float* b,
                     std::size_t n);

/// Blocked dot product over `n` floats with independent accumulators:
/// the scalar reference every SIMD target must match bit for bit.
///
/// The seed implementation summed one `double` at a time, so every add
/// sat on the previous add's latency; splitting the sum across four
/// accumulator chains lets the compiler vectorize and keeps the FP units
/// busy. Products are still taken in `double` (exact for float inputs),
/// so the only deviation from the strictly sequential sum is the final
/// reassociation of four partial sums — error on the order of 1e-15 for
/// unit vectors, far below any score gap that survives the deterministic
/// index tie-break. Accumulating in `float` instead would be ~1e-7 loose,
/// enough to flip real rankings, so the kernel deliberately keeps the
/// promotion (a free lane-widening convert on the load path).
double DotBlocked(const float* a, const float* b, std::size_t n);

/// Exact integer dot product of two uint8 code rows (the int8-quantized
/// scan; see quantized_vectors.h). Integer arithmetic has no rounding,
/// so every target is trivially bit-identical; the AVX2 variant widens
/// 16 codes at a time to int16 and multiply-accumulates into int32
/// lanes. `n` must stay below kMaxCodeDot to keep the int32 lane
/// accumulators from overflowing (255*255 per product, two products per
/// lane per step).
std::int64_t DotCodes(const std::uint8_t* a, const std::uint8_t* b,
                      std::size_t n);

/// DotCodes through an explicit target (equivalence tests).
std::int64_t DotCodesWithTarget(DotTarget target, const std::uint8_t* a,
                                const std::uint8_t* b, std::size_t n);

/// Largest code-row length DotCodes accepts without risking lane
/// overflow in the vector variants: the AVX2 int32 lanes gain at most
/// 2*65025 per 16-code step (2,130,739,200 < INT32_MAX at 16384 steps),
/// and the NEON uint32 lanes at most 4*65025 per step. Quantized rows
/// are far shorter than this in practice (embedder dimensions).
inline constexpr std::size_t kMaxCodeDot = std::size_t{1} << 18;

/// Ordering shared by every retrieval surface: higher score first, ties
/// broken by lower insertion index (deterministic).
inline bool HitBetter(const Hit& a, const Hit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

/// Bounded top-k selection without materializing all candidates.
///
/// Keeps at most `k` hits in a min-heap ordered by HitBetter (worst hit
/// at the root), so offering n candidates costs O(n log k) time and O(k)
/// memory instead of the seed's O(n) hit buffer + partial_sort. The
/// selected set — and, after Take(), its order — is bit-identical to
/// sorting all candidates with HitBetter and truncating, regardless of
/// offer order, because HitBetter is a strict total order (no two hits
/// share an index).
class TopKSelector {
 public:
  explicit TopKSelector(std::size_t k) : k_(k) { heap_.reserve(k); }

  void Offer(std::size_t index, double score) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(Hit{index, score});
      std::push_heap(heap_.begin(), heap_.end(), HitBetter);
      return;
    }
    if (!HitBetter(Hit{index, score}, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), HitBetter);
    heap_.back() = Hit{index, score};
    std::push_heap(heap_.begin(), heap_.end(), HitBetter);
  }

  /// The worst selected hit so far; the selector must not be empty.
  const Hit& Worst() const { return heap_.front(); }

  /// Extracts the selected hits, best first. Leaves the selector empty.
  std::vector<Hit> Take() {
    std::sort(heap_.begin(), heap_.end(), HitBetter);
    return std::move(heap_);
  }

 private:
  std::size_t k_;
  std::vector<Hit> heap_;
};

}  // namespace gred::embed

#endif  // GREDVIS_EMBED_KERNEL_H_
