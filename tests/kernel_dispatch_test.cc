// Dispatch suite for the SIMD dot kernel and the aligned SoA layout.
//
// The contract under test: every compiled-and-supported dispatch target
// (scalar, portable, avx2, neon) computes the scalar reference
// DotBlocked's exact arithmetic DAG, so Dot() returns bit-identical
// doubles no matter which target the CPU selects — retrieval results
// cannot change across machines. The integer code kernel (DotCodes) is
// exact by construction and must match a naive int64 sum on every
// target. The concurrent hammer runs
// under TSan via scripts/tier1.sh: the one-time target resolution and
// concurrent Dot() calls must be race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "embed/aligned_buffer.h"
#include "embed/flat_vectors.h"
#include "embed/kernel.h"
#include "embed/quantized_vectors.h"
#include "util/rng.h"

namespace gred::embed {
namespace {

Vector RandomVector(Rng* rng, std::size_t dim) {
  Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng->NextDouble() - 0.5);
  return v;
}

TEST(KernelDispatch, ScalarTargetAlwaysSupported) {
  std::vector<DotTarget> targets = SupportedDotTargets();
  ASSERT_FALSE(targets.empty());
  EXPECT_NE(std::find(targets.begin(), targets.end(), DotTarget::kScalar),
            targets.end());
  // The active target must be one of the supported ones.
  EXPECT_NE(std::find(targets.begin(), targets.end(), ActiveDotTarget()),
            targets.end());
  // Names are distinct and stable (they key benchmark reports).
  std::set<std::string> names;
  for (DotTarget target : targets) names.insert(DotTargetName(target));
  EXPECT_EQ(names.size(), targets.size());
}

TEST(KernelDispatch, AllTargetsBitIdenticalToScalarReference) {
  // Bit-identical, not approximately equal: every target reproduces
  // DotBlocked's four-chain DAG exactly (float->double products are
  // exact, so even FMA rounds identically to multiply-then-add).
  Rng rng(101);
  for (std::size_t dim : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{4}, std::size_t{7}, std::size_t{8},
                          std::size_t{15}, std::size_t{16}, std::size_t{17},
                          std::size_t{64}, std::size_t{511}, std::size_t{512},
                          std::size_t{513}}) {
    Vector a = RandomVector(&rng, dim);
    Vector b = RandomVector(&rng, dim);
    const double reference = DotBlocked(a.data(), b.data(), dim);
    for (DotTarget target : SupportedDotTargets()) {
      EXPECT_EQ(DotWithTarget(target, a.data(), b.data(), dim), reference)
          << "dim " << dim << " target " << DotTargetName(target);
    }
    EXPECT_EQ(Dot(a.data(), b.data(), dim), reference) << "dim " << dim;
  }
}

TEST(KernelDispatch, DotCodesExactOnAllTargets) {
  Rng rng(202);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{15},
                        std::size_t{16}, std::size_t{17}, std::size_t{31},
                        std::size_t{32}, std::size_t{100}, std::size_t{512}}) {
    std::vector<std::uint8_t> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::uint8_t>(rng.NextIndex(256));
      b[i] = static_cast<std::uint8_t>(rng.NextIndex(256));
    }
    std::int64_t reference = 0;
    for (std::size_t i = 0; i < n; ++i) {
      reference += static_cast<std::int64_t>(a[i]) * b[i];
    }
    for (DotTarget target : SupportedDotTargets()) {
      EXPECT_EQ(DotCodesWithTarget(target, a.data(), b.data(), n), reference)
          << "n " << n << " target " << DotTargetName(target);
    }
    EXPECT_EQ(DotCodes(a.data(), b.data(), n), reference);
  }
}

TEST(KernelDispatch, DotCodesSaturatedRowsAtOverflowBound) {
  // All-255 rows at the documented kMaxCodeDot length: the worst case
  // the int32 lane analysis in kernel.h promises to survive.
  std::vector<std::uint8_t> a(kMaxCodeDot, 255), b(kMaxCodeDot, 255);
  const std::int64_t expected =
      static_cast<std::int64_t>(kMaxCodeDot) * 255 * 255;
  for (DotTarget target : SupportedDotTargets()) {
    EXPECT_EQ(DotCodesWithTarget(target, a.data(), b.data(), kMaxCodeDot),
              expected)
        << DotTargetName(target);
  }
}

TEST(KernelDispatch, ConcurrentDispatchIsRaceFreeAndConsistent) {
  // Run under TSan by scripts/tier1.sh: concurrent Dot() calls (racing
  // through the one-time target resolution on a cold process) must be
  // data-race-free and agree with the scalar reference.
  Rng rng(303);
  Vector a = RandomVector(&rng, 257);
  Vector b = RandomVector(&rng, 257);
  const double reference = DotBlocked(a.data(), b.data(), a.size());
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        if (Dot(a.data(), b.data(), a.size()) != reference) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(AlignedLayout, AlignedStrideRoundsUpToRowAlignment) {
  EXPECT_EQ(AlignedStride(0, sizeof(float)), 0u);
  EXPECT_EQ(AlignedStride(1, sizeof(float)), 8u);   // 32 bytes / 4
  EXPECT_EQ(AlignedStride(8, sizeof(float)), 8u);
  EXPECT_EQ(AlignedStride(9, sizeof(float)), 16u);
  EXPECT_EQ(AlignedStride(1, 1), 32u);              // uint8 codes
  EXPECT_EQ(AlignedStride(32, 1), 32u);
  EXPECT_EQ(AlignedStride(33, 1), 64u);
}

TEST(AlignedLayout, FlatVectorsRowsStartOnAlignedBoundaries) {
  Rng rng(404);
  for (std::size_t dim : {std::size_t{3}, std::size_t{17}, std::size_t{64},
                          std::size_t{129}}) {
    FlatVectors rows;
    for (int i = 0; i < 9; ++i) rows.Append(RandomVector(&rng, dim));
    EXPECT_EQ(rows.stride() % FlatVectors::kRowAlignFloats, 0u)
        << "stride invariant at dim " << dim;
    EXPECT_GE(rows.stride(), dim);
    EXPECT_EQ(rows.max_dim(), dim);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rows.row(i)) %
                    kRowAlignBytes,
                0u)
          << "row " << i << " at dim " << dim;
      EXPECT_EQ(rows.row_size(i), dim);
    }
  }
}

TEST(AlignedLayout, MixedDimensionRepackKeepsAlignmentAndContents) {
  Rng rng(505);
  FlatVectors rows;
  std::vector<Vector> originals;
  for (std::size_t dim : {std::size_t{4}, std::size_t{40}, std::size_t{12},
                          std::size_t{100}, std::size_t{7}}) {
    originals.push_back(RandomVector(&rng, dim));
    rows.Append(originals.back());
  }
  EXPECT_EQ(rows.max_dim(), 100u);
  EXPECT_EQ(rows.stride() % FlatVectors::kRowAlignFloats, 0u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rows.row(i)) % kRowAlignBytes,
              0u);
    EXPECT_EQ(rows.CopyRow(i), originals[i]);  // re-pack preserved rows
    // Padding past the true dimension is zero (dot-product neutral).
    for (std::size_t d = rows.row_size(i); d < rows.stride(); ++d) {
      EXPECT_EQ(rows.row(i)[d], 0.0f);
    }
  }
}

TEST(AlignedLayout, QuantizedRowsShareTheStrideInvariant) {
  Rng rng(606);
  FlatVectors rows;
  for (int i = 0; i < 5; ++i) rows.Append(RandomVector(&rng, 48));
  QuantizedVectors codes;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    codes.Append(rows.row(i), rows.row_size(i));
  }
  EXPECT_EQ(codes.size(), rows.size());
  EXPECT_EQ(codes.stride() % kRowAlignBytes, 0u);
  EXPECT_GE(codes.stride(), 48u);
}

}  // namespace
}  // namespace gred::embed
