#include "exec/reference_executor.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dvq/normalize.h"
#include "exec/chunk.h"
#include "exec/scalar.h"
#include "exec/vector_ops.h"

namespace gred::exec::reference {

namespace {

using storage::Value;

/// Re-executes `sub` through the reference (never through production
/// exec::Execute, which this library exists to check).
Result<Value> EvaluateScalarSubquery(const dvq::Query& sub,
                                     const storage::DatabaseData& db,
                                     const ExecOptions& options) {
  GRED_ASSIGN_OR_RETURN(ResultSet rs, reference::Execute(sub, db, options));
  if (rs.rows.empty() || rs.rows[0].empty()) return Value::Null();
  return rs.rows[0][0];
}

/// Group-key hash: fold every key cell into the seeded combiner
/// (vector_ops.h) exactly as the production group-by does, honoring the
/// test-only hash override.
std::uint64_t HashKey(const std::vector<Value>& key, ValueHashFn fn) {
  std::uint64_t h = kGroupHashSeed;
  for (const Value& v : key) {
    h = CombineKeyHash(h, HashValueWith(fn, v));
  }
  return h;
}

struct WorkingSet {
  SlotBinding binding;
  std::vector<std::vector<Value>> rows;
};

Result<WorkingSet> BuildJoinedRows(const dvq::Query& q,
                                   const storage::DatabaseData& db,
                                   const ExecOptions& options) {
  WorkingSet ws;
  const storage::DataTable* from = db.FindTable(q.from_table);
  if (from == nullptr) {
    return Status::ExecutionError("unknown table '" + q.from_table + "'");
  }
  ws.binding.AddTable(*from);
  ExecContext* guard = options.context;
  ws.rows.reserve(from->num_rows());
  for (std::size_t r = 0; r < from->num_rows(); ++r) {
    GRED_CHARGE(guard, ChargeTicks(1));
    GRED_CHARGE(guard, ChargeRows(1, from->num_columns()));
    ws.rows.push_back(from->Row(r));
  }
  for (const dvq::JoinClause& join : q.joins) {
    const storage::DataTable* right = db.FindTable(join.table);
    if (right == nullptr) {
      return Status::ExecutionError("unknown table '" + join.table + "'");
    }
    // Determine which side of the ON condition binds to the existing rows
    // and which to the newly joined table.
    SlotBinding right_binding;
    right_binding.AddTable(*right);
    auto left_in_existing = ws.binding.Resolve(join.left);
    dvq::ColumnRef probe = join.left;
    dvq::ColumnRef build = join.right;
    if (!left_in_existing.ok()) {
      std::swap(probe, build);
    }
    GRED_ASSIGN_OR_RETURN(std::size_t probe_slot, ws.binding.Resolve(probe));
    // The build key must resolve within the joined table only.
    dvq::ColumnRef build_local = build;
    GRED_ASSIGN_OR_RETURN(std::size_t build_slot,
                          right_binding.Resolve(build_local));

    const std::size_t merged_width =
        ws.binding.size() + right->num_columns();
    std::vector<std::vector<Value>> joined;
    // The reference charges per row by definition; the build side's
    // ticks are paid before the table is constructed.
    for (std::size_t r = 0; r < right->num_rows(); ++r) {
      GRED_CHARGE(guard, ChargeTicks(1));
    }
    JoinHashTable table(right->column(build_slot), options.value_hash);
    std::vector<std::uint32_t> matches;
    for (const auto& row : ws.rows) {
      GRED_CHARGE(guard, ChargeTicks(1));
      const Value& key = row[probe_slot];
      if (key.is_null()) continue;
      matches.clear();
      table.Probe(key, HashValueWith(options.value_hash, key), &matches);
      for (std::uint32_t m : matches) {
        GRED_CHARGE(guard, ChargeJoinRows(1));
        GRED_CHARGE(guard, ChargeRows(1, merged_width));
        std::vector<Value> merged = row;
        std::vector<Value> rrow = right->Row(m);
        merged.insert(merged.end(), rrow.begin(), rrow.end());
        joined.push_back(std::move(merged));
      }
    }
    ws.binding.AddTable(*right);
    ws.rows = std::move(joined);
  }
  return ws;
}

Result<bool> EvaluatePredicate(const dvq::Predicate& pred,
                               const SlotBinding& binding,
                               const std::vector<Value>& row,
                               const storage::DatabaseData& db,
                               const ExecOptions& options) {
  GRED_ASSIGN_OR_RETURN(std::size_t slot, binding.Resolve(pred.col));
  const Value& lhs = row[slot];
  switch (pred.op) {
    case dvq::CompareOp::kIsNull:
      return lhs.is_null();
    case dvq::CompareOp::kIsNotNull:
      return !lhs.is_null();
    case dvq::CompareOp::kLike:
    case dvq::CompareOp::kNotLike: {
      if (!pred.literal.has_value()) {
        return Status::ExecutionError("LIKE without a pattern");
      }
      bool match = LikeMatch(pred.literal->string_value, lhs.ToString());
      return pred.op == dvq::CompareOp::kLike ? match : !match;
    }
    case dvq::CompareOp::kIn:
    case dvq::CompareOp::kNotIn: {
      bool found = false;
      for (const dvq::Literal& lit : pred.in_list) {
        if (lhs == LiteralToValue(lit)) {
          found = true;
          break;
        }
      }
      return pred.op == dvq::CompareOp::kIn ? found : !found;
    }
    default:
      break;
  }
  Value rhs;
  if (pred.subquery != nullptr) {
    GRED_ASSIGN_OR_RETURN(rhs,
                          EvaluateScalarSubquery(*pred.subquery, db, options));
  } else if (pred.literal.has_value()) {
    rhs = LiteralToValue(*pred.literal);
  } else {
    return Status::ExecutionError("predicate missing right-hand side");
  }
  if (lhs.is_null() || rhs.is_null()) return false;  // SQL 3VL -> not true
  int cmp = lhs.Compare(rhs);
  switch (pred.op) {
    case dvq::CompareOp::kEq:
      return cmp == 0;
    case dvq::CompareOp::kNe:
      return cmp != 0;
    case dvq::CompareOp::kLt:
      return cmp < 0;
    case dvq::CompareOp::kLe:
      return cmp <= 0;
    case dvq::CompareOp::kGt:
      return cmp > 0;
    case dvq::CompareOp::kGe:
      return cmp >= 0;
    default:
      return Status::ExecutionError("unsupported comparison");
  }
}

/// Evaluates the condition with SQL precedence (AND binds tighter than
/// OR): the chain is an OR of AND-groups.
Result<bool> EvaluateCondition(const dvq::Condition& cond,
                               const SlotBinding& binding,
                               const std::vector<Value>& row,
                               const storage::DatabaseData& db,
                               const ExecOptions& options) {
  bool group_result = true;
  bool any_group_true = false;
  for (std::size_t i = 0; i < cond.predicates.size(); ++i) {
    GRED_ASSIGN_OR_RETURN(
        bool value,
        EvaluatePredicate(cond.predicates[i], binding, row, db, options));
    group_result = group_result && value;
    bool end_of_group = i + 1 >= cond.predicates.size() ||
                        cond.connectors[i] == dvq::LogicalOp::kOr;
    if (end_of_group) {
      any_group_true = any_group_true || group_result;
      group_result = true;
    }
  }
  return any_group_true;
}

Result<ResultSet> ExecuteRowEngine(const dvq::Query& q,
                                   const storage::DatabaseData& db,
                                   const ExecOptions& options) {
  ExecContext* guard = options.context;
  GRED_ASSIGN_OR_RETURN(WorkingSet ws, BuildJoinedRows(q, db, options));

  // Filter.
  if (q.where.has_value()) {
    std::vector<std::vector<Value>> kept;
    kept.reserve(ws.rows.size());
    for (auto& row : ws.rows) {
      GRED_CHARGE(guard, ChargeTicks(1));
      GRED_ASSIGN_OR_RETURN(
          bool pass, EvaluateCondition(*q.where, ws.binding, row, db, options));
      if (pass) kept.push_back(std::move(row));
    }
    ws.rows = std::move(kept);
  }

  // Binning rewrites the binned column in place.
  if (q.bin.has_value()) {
    GRED_ASSIGN_OR_RETURN(std::size_t bin_slot,
                          ws.binding.Resolve(q.bin->col));
    for (auto& row : ws.rows) {
      GRED_CHARGE(guard, ChargeTicks(1));
      row[bin_slot] = BinValue(row[bin_slot], q.bin->unit);
    }
  }

  // Resolve select expressions. The ORDER BY expression may reference an
  // aggregate (or column) not in the select list; compute it as a hidden
  // trailing column.
  std::vector<dvq::SelectExpr> computed = q.select;
  std::optional<std::size_t> order_slot =
      UnifyOrderBy(q, ws.binding, &computed);

  bool has_aggregate = false;
  for (const dvq::SelectExpr& e : computed) {
    if (e.agg != dvq::AggFunc::kNone) has_aggregate = true;
  }

  std::vector<std::vector<Value>> out_rows;
  if (has_aggregate || !q.group_by.empty()) {
    // Determine grouping keys: explicit GROUP BY, else all non-aggregated
    // select columns (Vega-Zero x-axis grouping).
    std::vector<dvq::ColumnRef> keys = q.group_by;
    if (keys.empty()) {
      for (const dvq::SelectExpr& e : q.select) {
        if (e.agg == dvq::AggFunc::kNone) keys.push_back(e.col);
      }
    }
    std::vector<std::size_t> key_slots;
    key_slots.reserve(keys.size());
    for (const dvq::ColumnRef& k : keys) {
      GRED_ASSIGN_OR_RETURN(std::size_t slot, ws.binding.Resolve(k));
      key_slots.push_back(slot);
    }
    std::vector<std::size_t> value_slots(computed.size(),
                                         static_cast<std::size_t>(-1));
    for (std::size_t i = 0; i < computed.size(); ++i) {
      if (computed[i].col.column == "*") continue;
      GRED_ASSIGN_OR_RETURN(std::size_t slot,
                            ws.binding.Resolve(computed[i].col));
      value_slots[i] = slot;
    }
    struct Group {
      std::vector<Value> key;
      std::vector<AggAccumulator> accs;
      std::vector<Value> first_row;
    };
    std::vector<Group> groups;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> index;
    for (const auto& row : ws.rows) {
      GRED_CHARGE(guard, ChargeTicks(1));
      std::vector<Value> key;
      key.reserve(key_slots.size());
      for (std::size_t slot : key_slots) key.push_back(row[slot]);
      std::uint64_t h = HashKey(key, options.value_hash);
      Group* group = nullptr;
      for (std::size_t gi : index[h]) {
        if (groups[gi].key == key) {
          group = &groups[gi];
          break;
        }
      }
      if (group == nullptr) {
        // A new group materializes its key, accumulators and first row:
        // high-cardinality group-bys are bounded by the row/memory
        // budgets, not just the tick deadline.
        GRED_CHARGE(guard, ChargeRows(1, key.size() + computed.size()));
        Group fresh;
        fresh.key = key;
        for (const dvq::SelectExpr& e : computed) {
          fresh.accs.emplace_back(e);
        }
        fresh.first_row = row;
        index[h].push_back(groups.size());
        groups.push_back(std::move(fresh));
        group = &groups.back();
      }
      for (std::size_t i = 0; i < computed.size(); ++i) {
        if (computed[i].agg == dvq::AggFunc::kNone) continue;
        const Value v = value_slots[i] == static_cast<std::size_t>(-1)
                            ? Value::Null()
                            : row[value_slots[i]];
        group->accs[i].Add(v);
      }
    }
    out_rows.reserve(groups.size());
    for (const Group& g : groups) {
      std::vector<Value> row;
      row.reserve(computed.size());
      for (std::size_t i = 0; i < computed.size(); ++i) {
        if (computed[i].agg == dvq::AggFunc::kNone) {
          row.push_back(g.first_row[value_slots[i]]);
        } else {
          row.push_back(g.accs[i].Finish());
        }
      }
      out_rows.push_back(std::move(row));
    }
  } else {
    // Pure projection.
    std::vector<std::size_t> slots;
    slots.reserve(computed.size());
    for (const dvq::SelectExpr& e : computed) {
      GRED_ASSIGN_OR_RETURN(std::size_t slot, ws.binding.Resolve(e.col));
      slots.push_back(slot);
    }
    out_rows.reserve(ws.rows.size());
    for (const auto& row : ws.rows) {
      GRED_CHARGE(guard, ChargeTicks(1));
      GRED_CHARGE(guard, ChargeRows(1, slots.size()));
      std::vector<Value> out;
      out.reserve(slots.size());
      for (std::size_t slot : slots) out.push_back(row[slot]);
      out_rows.push_back(std::move(out));
    }
  }

  // Order. The comparator cannot propagate a Status, so the sort's work
  // is charged up front (stable_sort is O(n log n); one tick per row is
  // the deterministic lower bound and the inputs were already paid for
  // row-by-row above).
  if (q.order_by.has_value()) {
    GRED_CHARGE(guard, ChargeTicks(out_rows.size()));
    const std::size_t slot = *order_slot;
    const bool desc = q.order_by->descending;
    std::stable_sort(out_rows.begin(), out_rows.end(),
                     [slot, desc](const auto& a, const auto& b) {
                       int cmp = a[slot].Compare(b[slot]);
                       return desc ? cmp > 0 : cmp < 0;
                     });
  }

  // Limit, then strip hidden order column.
  if (q.limit.has_value() && *q.limit >= 0 &&
      out_rows.size() > static_cast<std::size_t>(*q.limit)) {
    out_rows.resize(static_cast<std::size_t>(*q.limit));
  }
  ResultSet rs;
  for (const dvq::SelectExpr& e : q.select) {
    rs.column_names.push_back(e.ToString());
  }
  const std::size_t visible = q.select.size();
  for (auto& row : out_rows) {
    row.resize(visible);
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

}  // namespace

Result<ResultSet> Execute(const dvq::Query& query,
                          const storage::DatabaseData& db,
                          const ExecOptions& options) {
  return ExecuteRowEngine(dvq::ResolveAliases(query), db, options);
}

Result<ResultSet> Execute(const dvq::DVQ& query,
                          const storage::DatabaseData& db,
                          const ExecOptions& options) {
  return reference::Execute(query.query, db, options);
}

std::string Fingerprint(const ResultSet& rs) {
  std::string out;
  for (const std::string& name : rs.column_names) {
    out += name;
    out += '\x1f';
  }
  out += '\n';
  for (const auto& row : rs.rows) {
    for (const Value& v : row) {
      if (v.is_null()) {
        out += 'N';
      } else if (v.is_int()) {
        out += 'I';
        out += std::to_string(v.int_value());
      } else if (v.is_real()) {
        out += 'R';
        out += std::to_string(std::bit_cast<std::uint64_t>(v.real_value()));
      } else {
        out += 'T';
        out += v.text_value();
      }
      out += '\x1f';
    }
    out += '\n';
  }
  return out;
}

}  // namespace gred::exec::reference
