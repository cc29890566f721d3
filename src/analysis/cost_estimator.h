#ifndef GREDVIS_ANALYSIS_COST_ESTIMATOR_H_
#define GREDVIS_ANALYSIS_COST_ESTIMATOR_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dvq/ast.h"
#include "storage/table.h"
#include "util/resource_guard.h"
#include "util/status.h"

namespace gred::analysis {

/// Predicted worst-case resource usage of one DVQ, in the exact charge
/// units of ExecContext (DESIGN.md §17): accounted ticks, materialized
/// rows, accounted bytes (kAccountedBytesPerCell per cell), and join
/// matches. Every field is a proven upper bound on what the executor
/// (exec::Execute) and its row-at-a-time reference will charge for the
/// same query over the same data.
struct CostEstimate {
  std::uint64_t ticks = 0;
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t join_rows = 0;

  /// True when any non-zero budget in `limits` would trip if the
  /// estimate were charged (the guard trips on `used > limit`).
  bool Exceeds(const GuardLimits& limits) const;

  /// Name of the first budget the estimate exceeds, for typed
  /// rejections: "deadline", "rows", "memory" or "joins"; empty when
  /// the estimate fits within `limits`.
  std::string ExceededBudget(const GuardLimits& limits) const;

  /// "ticks=120 rows=40 bytes=1920 join_rows=0".
  std::string ToString() const;
};

/// Abstract interpreter over DVQ ASTs that prices a query against a
/// database instance before execution (DESIGN.md §17).
///
/// Walks the query in executor-operator order (scan, joins, filter,
/// bin, group/project, order) and accumulates saturating upper bounds
/// on every ExecContext charge, using per-table statistics (row counts,
/// per-column distinct counts and maximum value frequency) from
/// storage::DataTable::Stats(). Statistics are computed lazily per
/// table and cached for the estimator's lifetime, so one instance can
/// price many requests against the same snapshot cheaply. Thread-safe.
class CostEstimator {
 public:
  /// `db` is not owned and must outlive the estimator.
  explicit CostEstimator(const storage::DatabaseData* db);

  /// Prices `dvq` (aliases are resolved first, mirroring Execute).
  /// Fails with NotFound when a referenced table does not exist or a
  /// join key cannot be attributed to the joined table — callers that
  /// gate admission should fail open on error and let the executor's
  /// own guards catch the overrun.
  Result<CostEstimate> Estimate(const dvq::DVQ& dvq) const;

  const storage::DatabaseData& db() const { return *db_; }

 private:
  Result<CostEstimate> EstimateQuery(const dvq::Query& q) const;
  const storage::DataTable::TableStats& StatsFor(std::size_t table_index) const;

  const storage::DatabaseData* db_;
  mutable std::mutex mu_;
  mutable std::vector<std::optional<storage::DataTable::TableStats>> cache_;
};

}  // namespace gred::analysis

#endif  // GREDVIS_ANALYSIS_COST_ESTIMATOR_H_
