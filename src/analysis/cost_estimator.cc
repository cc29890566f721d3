#include "analysis/cost_estimator.h"

#include <algorithm>
#include <cstddef>

#include "dvq/normalize.h"
#include "util/strings.h"

namespace gred::analysis {
namespace {

// Saturating arithmetic: a statically-unbounded query (cross-join
// towers) must price as "enormous", not wrap to a small number.
std::uint64_t SatAdd(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_add_overflow(a, b, &r) ? UINT64_MAX : r;
}

std::uint64_t SatMul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_mul_overflow(a, b, &r) ? UINT64_MAX : r;
}

void Accumulate(const CostEstimate& part, std::uint64_t times,
                CostEstimate* total) {
  total->ticks = SatAdd(total->ticks, SatMul(times, part.ticks));
  total->rows = SatAdd(total->rows, SatMul(times, part.rows));
  total->bytes = SatAdd(total->bytes, SatMul(times, part.bytes));
  total->join_rows = SatAdd(total->join_rows, SatMul(times, part.join_rows));
}

/// Mirror of the executors' shared SlotBinding resolution (first slot in
/// table-add order whose column name matches, table qualifier honored),
/// lifted to (table, column-index) pairs so statistics can be attributed.
struct ScopeSlot {
  std::size_t table_index = 0;   // into DatabaseData::tables()
  std::size_t column_index = 0;  // into that table's columns
};

class Scope {
 public:
  explicit Scope(const storage::DatabaseData* db) : db_(db) {}

  void AddTable(std::size_t table_index) { tables_.push_back(table_index); }

  std::optional<ScopeSlot> Resolve(const dvq::ColumnRef& ref) const {
    for (std::size_t t : tables_) {
      const storage::DataTable& table = db_->tables()[t];
      if (!ref.table.empty() &&
          !strings::EqualsIgnoreCase(table.name(), ref.table)) {
        continue;
      }
      const auto& columns = table.def().columns();
      for (std::size_t c = 0; c < columns.size(); ++c) {
        if (strings::EqualsIgnoreCase(columns[c].name, ref.column)) {
          return ScopeSlot{t, c};
        }
      }
    }
    return std::nullopt;
  }

 private:
  const storage::DatabaseData* db_;
  std::vector<std::size_t> tables_;
};

std::optional<std::size_t> TableIndex(const storage::DatabaseData& db,
                                      const std::string& name) {
  for (std::size_t i = 0; i < db.tables().size(); ++i) {
    if (strings::EqualsIgnoreCase(db.tables()[i].name(), name)) return i;
  }
  return std::nullopt;
}

/// Conservative mirror of the executor's OrderMatchesSelect: returns
/// true only when the executor provably unifies the ORDER BY expression
/// with `sel` (no hidden column). When unsure it returns false, which
/// only ever widens the estimate.
bool ProvablyUnifies(const dvq::SelectExpr& sel, const dvq::SelectExpr& order) {
  if (sel.agg != order.agg || sel.distinct != order.distinct) return false;
  if (sel.col.column == "*" || order.col.column == "*") {
    return sel.col.EqualsIgnoreCase(order.col);
  }
  if (order.col.table.empty()) {
    return strings::EqualsIgnoreCase(sel.col.column, order.col.column);
  }
  return sel.col.EqualsIgnoreCase(order.col);
}

}  // namespace

bool CostEstimate::Exceeds(const GuardLimits& limits) const {
  return !ExceededBudget(limits).empty();
}

std::string CostEstimate::ExceededBudget(const GuardLimits& limits) const {
  if (limits.deadline_ticks != 0 && ticks > limits.deadline_ticks) {
    return "deadline";
  }
  if (limits.row_budget != 0 && rows > limits.row_budget) return "rows";
  if (limits.memory_budget != 0 && bytes > limits.memory_budget) {
    return "memory";
  }
  if (limits.join_budget != 0 && join_rows > limits.join_budget) {
    return "joins";
  }
  return "";
}

std::string CostEstimate::ToString() const {
  return strings::Format("ticks=%llu rows=%llu bytes=%llu join_rows=%llu",
                         static_cast<unsigned long long>(ticks),
                         static_cast<unsigned long long>(rows),
                         static_cast<unsigned long long>(bytes),
                         static_cast<unsigned long long>(join_rows));
}

CostEstimator::CostEstimator(const storage::DatabaseData* db)
    : db_(db), cache_(db->tables().size()) {}

const storage::DataTable::TableStats& CostEstimator::StatsFor(
    std::size_t table_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<storage::DataTable::TableStats>& slot = cache_[table_index];
  if (!slot.has_value()) slot = db_->tables()[table_index].Stats();
  return *slot;
}

Result<CostEstimate> CostEstimator::Estimate(const dvq::DVQ& dvq) const {
  return EstimateQuery(dvq::ResolveAliases(dvq.query));
}

Result<CostEstimate> CostEstimator::EstimateQuery(const dvq::Query& q) const {
  CostEstimate total;
  Scope scope(db_);

  // Scan: one tick and one materialized row per stored row.
  std::optional<std::size_t> from = TableIndex(*db_, q.from_table);
  if (!from.has_value()) {
    return Status::NotFound("unknown table '" + q.from_table + "'");
  }
  scope.AddTable(*from);
  const storage::DataTable& from_table = db_->tables()[*from];
  std::uint64_t live_rows = from_table.num_rows();
  std::uint64_t width = from_table.num_columns();
  total.ticks = SatAdd(total.ticks, live_rows);
  total.rows = SatAdd(total.rows, live_rows);
  total.bytes = SatAdd(total.bytes,
                       SatMul(live_rows, SatMul(width, kAccountedBytesPerCell)));

  // Joins fold left: the accumulated side probes, the fresh right table
  // builds. Ticks: the hash join pays one per build row (charged even
  // when the probe side is empty) plus one per probe row, L+R exactly.
  // Matches: each probe row meets at most max_count(build column) build
  // rows.
  for (const dvq::JoinClause& join : q.joins) {
    std::optional<std::size_t> right = TableIndex(*db_, join.table);
    if (!right.has_value()) {
      return Status::NotFound("unknown table '" + join.table + "'");
    }
    const storage::DataTable& right_table = db_->tables()[*right];
    dvq::ColumnRef probe = join.left;
    dvq::ColumnRef build = join.right;
    if (!scope.Resolve(probe).has_value()) std::swap(probe, build);
    if (!scope.Resolve(probe).has_value()) {
      return Status::NotFound("join key '" + probe.ToString() +
                              "' resolves in neither side");
    }
    // The build key must resolve within the joined table alone.
    Scope right_scope(db_);
    right_scope.AddTable(*right);
    std::optional<ScopeSlot> build_slot = right_scope.Resolve(build);
    if (!build_slot.has_value()) {
      return Status::NotFound("join key '" + build.ToString() +
                              "' not in table '" + join.table + "'");
    }
    const std::uint64_t right_rows = right_table.num_rows();
    const std::uint64_t max_count =
        StatsFor(*right).columns[build_slot->column_index].max_count;
    const std::uint64_t matches = std::min(
        SatMul(live_rows, right_rows), SatMul(live_rows, max_count));
    const std::uint64_t merged_width =
        SatAdd(width, right_table.num_columns());
    total.ticks = SatAdd(total.ticks, SatAdd(live_rows, right_rows));
    total.join_rows = SatAdd(total.join_rows, matches);
    total.rows = SatAdd(total.rows, matches);
    total.bytes = SatAdd(
        total.bytes,
        SatMul(matches, SatMul(merged_width, kAccountedBytesPerCell)));
    live_rows = matches;
    width = merged_width;
    scope.AddTable(*right);
  }

  // Filter: one tick per input row; the reference executor re-executes
  // every scalar subquery per row (the production executor hoists them,
  // charging strictly less), and the bound covers both. Selectivity is bounded by 1: every row may survive.
  if (q.where.has_value()) {
    total.ticks = SatAdd(total.ticks, live_rows);
    for (const dvq::Predicate& p : q.where->predicates) {
      if (p.subquery == nullptr) continue;
      GRED_ASSIGN_OR_RETURN(CostEstimate sub, EstimateQuery(*p.subquery));
      Accumulate(sub, live_rows, &total);
    }
  }

  // Bin: one tick per row.
  if (q.bin.has_value()) total.ticks = SatAdd(total.ticks, live_rows);

  // Group / project. The hidden ORDER BY column exists exactly when the
  // executor fails to unify the sort expression with a select item;
  // ProvablyUnifies under-approximates unification, so `hidden` may be
  // conservatively true but never falsely false.
  bool hidden = false;
  if (q.order_by.has_value()) {
    hidden = !std::any_of(q.select.begin(), q.select.end(),
                          [&](const dvq::SelectExpr& s) {
                            return ProvablyUnifies(s, q.order_by->expr);
                          });
  }
  std::uint64_t computed_width = q.select.size() + (hidden ? 1 : 0);
  bool has_aggregate =
      std::any_of(q.select.begin(), q.select.end(),
                  [](const dvq::SelectExpr& e) {
                    return e.agg != dvq::AggFunc::kNone;
                  }) ||
      (q.order_by.has_value() &&
       q.order_by->expr.agg != dvq::AggFunc::kNone);

  std::uint64_t out_rows = 0;
  if (has_aggregate || !q.group_by.empty()) {
    total.ticks = SatAdd(total.ticks, live_rows);
    // Group count: bounded by input rows and by the product of the key
    // columns' base distinct counts (joins, filters and bins never
    // enlarge a column's distinct set).
    std::vector<dvq::ColumnRef> keys = q.group_by;
    if (keys.empty()) {
      for (const dvq::SelectExpr& e : q.select) {
        if (e.agg == dvq::AggFunc::kNone) keys.push_back(e.col);
      }
    }
    std::uint64_t distinct_product = 1;
    for (const dvq::ColumnRef& key : keys) {
      std::optional<ScopeSlot> slot = scope.Resolve(key);
      if (!slot.has_value()) {
        distinct_product = UINT64_MAX;  // unknown key: fall back to rows
        break;
      }
      distinct_product = SatMul(
          distinct_product,
          StatsFor(slot->table_index).columns[slot->column_index].distinct);
    }
    const std::uint64_t groups = std::min(live_rows, distinct_product);
    const std::uint64_t group_width = SatAdd(keys.size(), computed_width);
    total.rows = SatAdd(total.rows, groups);
    total.bytes = SatAdd(
        total.bytes,
        SatMul(groups, SatMul(group_width, kAccountedBytesPerCell)));
    out_rows = groups;
  } else {
    // Pure projection: one tick and one output row per input row.
    total.ticks = SatAdd(total.ticks, live_rows);
    total.rows = SatAdd(total.rows, live_rows);
    total.bytes = SatAdd(
        total.bytes,
        SatMul(live_rows, SatMul(computed_width, kAccountedBytesPerCell)));
    out_rows = live_rows;
  }

  // Order: one tick per output row, charged before the sort.
  if (q.order_by.has_value()) {
    total.ticks = SatAdd(total.ticks, out_rows);
  }
  return total;
}

}  // namespace gred::analysis
