#ifndef GREDVIS_EXEC_VECTOR_OPS_H_
#define GREDVIS_EXEC_VECTOR_OPS_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dvq/ast.h"
#include "exec/chunk.h"
#include "storage/value.h"

namespace gred::exec {

/// Optional 64-bit value-hash override. Production code passes nullptr
/// (= storage::Value::Hash); tests inject degenerate hashes (e.g. a
/// constant) to prove hash joins and group-by never trust a hash match
/// without re-checking actual key values.
using ValueHashFn = std::uint64_t (*)(const storage::Value&);

inline std::uint64_t HashValueWith(ValueHashFn fn,
                                   const storage::Value& v) {
  return fn != nullptr ? fn(v) : v.Hash();
}

/// Multi-column group-key hashing, split into seed/combine so callers
/// can fold cell hashes without materializing key tuples. Must stay in
/// lockstep between the executor and its row-at-a-time reference.
inline constexpr std::uint64_t kGroupHashSeed = 0x51ed270b8d5f1fd1ULL;

inline std::uint64_t CombineKeyHash(std::uint64_t h,
                                    std::uint64_t cell_hash) {
  return h ^ (cell_hash + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// One WHERE predicate, resolved and constant-folded for vectorized
/// evaluation: the column slot is bound, the literal / scalar-subquery
/// right-hand side is a Value, and IN-list literals are converted once
/// (the row engine re-converts per row).
struct PreparedPredicate {
  std::size_t slot = 0;
  dvq::CompareOp op = dvq::CompareOp::kEq;
  storage::Value rhs;                    // comparison RHS (may be NULL)
  std::vector<storage::Value> in_values; // IN / NOT IN
  std::string pattern;                   // LIKE / NOT LIKE
  /// Comparison against an int RHS over a NULL-free all-int column:
  /// the kernel runs a branch-light int loop instead of Value::Compare.
  bool dense_int_fast = false;
};

/// Evaluates `pred` over rows [begin, end) of `col`, writing 0/1 into
/// out[0 .. end-begin). Semantics mirror the row engine exactly
/// (SQL-ish three-valued logic for comparisons: NULL on either side is
/// false; LIKE matches against Value::ToString; IN compares NULL as
/// never-found so NOT IN includes NULL rows).
void EvalPredicateRange(const ColumnView& col,
                        const PreparedPredicate& pred, std::size_t begin,
                        std::size_t end, std::uint8_t* out);

/// acc[i] &= x[i] / acc[i] |= x[i] over `n` bytes.
void AndInto(std::uint8_t* acc, const std::uint8_t* x, std::size_t n);
void OrInto(std::uint8_t* acc, const std::uint8_t* x, std::size_t n);

/// Chained hash table for equi-join build sides. Build rows with NULL
/// keys are skipped (SQL equi-join semantics). Probing re-checks actual
/// key equality after the hash matches — a 64-bit collision must never
/// join unrelated rows — and reports matches in ascending build-row
/// order, so join output order is deterministic across platforms and
/// standard libraries.
class JoinHashTable {
 public:
  JoinHashTable(const std::vector<storage::Value>& keys, ValueHashFn hash);

  /// Appends matching build-row ids for `key` to `out` (ascending).
  void Probe(const storage::Value& key, std::uint64_t key_hash,
             std::vector<std::uint32_t>* out) const;

 private:
  const std::vector<storage::Value>& keys_;
  std::vector<std::uint64_t> hashes_;  // per build row
  std::vector<std::int32_t> heads_;    // per bucket, -1 = empty
  std::vector<std::int32_t> next_;     // per build row, -1 = end
  std::uint64_t mask_ = 0;
};

/// Open-addressing map from group-key hash to dense group id, with full
/// key re-check delegated to the caller (`eq` compares the candidate
/// row's key against an existing group's key). Group ids are assigned
/// in first-seen order, matching the row engine's group output order.
class GroupIndex {
 public:
  GroupIndex();

  std::size_t size() const { return groups_; }

  /// Returns {group id, inserted}. `eq(gid)` must return true iff the
  /// caller's candidate key equals group `gid`'s key.
  template <typename EqFn>
  std::pair<std::uint32_t, bool> FindOrInsert(std::uint64_t hash,
                                              EqFn&& eq) {
    if ((groups_ + 1) * 10 >= slot_gid_.size() * 7) Grow();
    std::size_t i = hash & mask_;
    while (true) {
      const std::int64_t gid = slot_gid_[i];
      if (gid < 0) {
        slot_gid_[i] = static_cast<std::int64_t>(groups_);
        slot_hash_[i] = hash;
        const auto id = static_cast<std::uint32_t>(groups_++);
        return {id, true};
      }
      if (slot_hash_[i] == hash &&
          eq(static_cast<std::uint32_t>(gid))) {
        return {static_cast<std::uint32_t>(gid), false};
      }
      i = (i + 1) & mask_;
    }
  }

 private:
  void Grow();

  std::vector<std::int64_t> slot_gid_;   // -1 = empty
  std::vector<std::uint64_t> slot_hash_;
  std::uint64_t mask_;
  std::size_t groups_ = 0;
};

/// Stable permutation of [0, n) ordering rows by the key column. Ties
/// keep their input order (std::stable_sort), so the permutation — and
/// therefore ORDER BY output — is deterministic across standard
/// libraries. Matches the row engine's comparator bit for bit.
std::vector<std::uint32_t> StableSortPermutation(std::size_t n,
                                                 const ColumnView& keys,
                                                 bool descending);

/// Accumulates one aggregate over a group. Shared verbatim by the
/// executor and its reference so SUM/AVG float accumulation order — and
/// thus the exact double bits — is identical between them.
class AggAccumulator {
 public:
  explicit AggAccumulator(const dvq::SelectExpr& expr) : expr_(expr) {}

  void Add(const storage::Value& v) {
    if (expr_.agg == dvq::AggFunc::kCount && expr_.col.column == "*") {
      ++count_;
      return;
    }
    if (v.is_null()) return;
    if (expr_.distinct) {
      // Distinct tracking via canonical string; adequate for the value
      // domains in play.
      if (!seen_.insert(v.ToString()).second) return;
    }
    ++count_;
    sum_ += v.AsDouble();
    if (!has_extreme_ || v < min_) min_ = v;
    if (!has_extreme_ || max_ < v) max_ = v;
    has_extreme_ = true;
  }

  storage::Value Finish() const {
    switch (expr_.agg) {
      case dvq::AggFunc::kCount:
        return storage::Value::Int(static_cast<std::int64_t>(count_));
      case dvq::AggFunc::kSum:
        return count_ == 0 ? storage::Value::Null()
                           : storage::Value::Real(sum_);
      case dvq::AggFunc::kAvg:
        return count_ == 0
                   ? storage::Value::Null()
                   : storage::Value::Real(sum_ /
                                          static_cast<double>(count_));
      case dvq::AggFunc::kMin:
        return has_extreme_ ? min_ : storage::Value::Null();
      case dvq::AggFunc::kMax:
        return has_extreme_ ? max_ : storage::Value::Null();
      case dvq::AggFunc::kNone:
        break;
    }
    return storage::Value::Null();
  }

 private:
  dvq::SelectExpr expr_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  storage::Value min_;
  storage::Value max_;
  bool has_extreme_ = false;
  std::set<std::string> seen_;
};

}  // namespace gred::exec

#endif  // GREDVIS_EXEC_VECTOR_OPS_H_
