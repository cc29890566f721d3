#include "exec/executor.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "dvq/normalize.h"
#include "exec/chunk.h"
#include "exec/scalar.h"
#include "exec/vector_ops.h"
#include "util/strings.h"

namespace gred::exec {

namespace {

using storage::Value;

Result<Value> EvaluateScalarSubquery(const dvq::Query& sub,
                                     const storage::DatabaseData& db,
                                     const ExecOptions& options) {
  GRED_ASSIGN_OR_RETURN(ResultSet rs, Execute(sub, db, options));
  if (rs.rows.empty() || rs.rows[0].empty()) return Value::Null();
  return rs.rows[0][0];
}

// ---------------------------------------------------------------------------
// Vectorized columnar engine.
//
// Guard parity: every operator charges the same per-operator totals as
// the row-at-a-time reference (exec/reference_executor.h), batched at
// kExecChunkRows granularity, so a query trips (or doesn't) identically
// in both. The one documented divergence: scalar subqueries are hoisted
// and evaluated once here but per outer row there, so with a subquery
// this engine charges at most as much — if it trips, the reference
// trips too.
// ---------------------------------------------------------------------------

struct ColumnarWorkingSet {
  SlotBinding binding;
  ColumnBatch batch;
};

Result<ColumnarWorkingSet> BuildJoinedBatch(const dvq::Query& q,
                                            const storage::DatabaseData& db,
                                            const ExecOptions& options) {
  ColumnarWorkingSet ws;
  const storage::DataTable* from = db.FindTable(q.from_table);
  if (from == nullptr) {
    return Status::ExecutionError("unknown table '" + q.from_table + "'");
  }
  ws.binding.AddTable(*from);
  ws.batch.AddScanTable(*from);
  ExecContext* guard = options.context;
  // Scan charges: the accounting model prices the logical working set
  // (DESIGN.md §8), so the scan pays for its rows even though the
  // columnar engine only borrows them.
  for (std::size_t done = 0; done < from->num_rows();) {
    const std::size_t n =
        std::min(from->num_rows() - done, kExecChunkRows);
    GRED_CHARGE(guard, ChargeTicks(n));
    GRED_CHARGE(guard, ChargeRows(n, from->num_columns()));
    done += n;
  }
  for (const dvq::JoinClause& join : q.joins) {
    const storage::DataTable* right = db.FindTable(join.table);
    if (right == nullptr) {
      return Status::ExecutionError("unknown table '" + join.table + "'");
    }
    SlotBinding right_binding;
    right_binding.AddTable(*right);
    auto left_in_existing = ws.binding.Resolve(join.left);
    dvq::ColumnRef probe = join.left;
    dvq::ColumnRef build = join.right;
    if (!left_in_existing.ok()) {
      std::swap(probe, build);
    }
    GRED_ASSIGN_OR_RETURN(std::size_t probe_slot, ws.binding.Resolve(probe));
    GRED_ASSIGN_OR_RETURN(std::size_t build_slot,
                          right_binding.Resolve(build));

    const std::size_t merged_width =
        ws.binding.size() + right->num_columns();
    const std::size_t n_left = ws.batch.num_rows();
    const ColumnView probe_view = ws.batch.View(probe_slot);
    std::vector<std::uint32_t> left_index;
    std::vector<std::uint32_t> right_rows;
    for (std::size_t done = 0; done < right->num_rows();) {
      const std::size_t n = std::min(right->num_rows() - done, kExecChunkRows);
      GRED_CHARGE(guard, ChargeTicks(n));
      done += n;
    }
    JoinHashTable table(right->column(build_slot), options.value_hash);
    std::vector<std::uint32_t> matches;
    for (std::size_t begin = 0; begin < n_left; begin += kExecChunkRows) {
      const std::size_t end = std::min(n_left, begin + kExecChunkRows);
      GRED_CHARGE(guard, ChargeTicks(end - begin));
      std::size_t chunk_matches = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const Value& key = probe_view.at(i);
        if (key.is_null()) continue;
        matches.clear();
        table.Probe(key, HashValueWith(options.value_hash, key), &matches);
        for (std::uint32_t m : matches) {
          left_index.push_back(static_cast<std::uint32_t>(i));
          right_rows.push_back(m);
        }
        chunk_matches += matches.size();
      }
      GRED_CHARGE(guard, ChargeJoinRows(chunk_matches));
      GRED_CHARGE(guard, ChargeRows(chunk_matches, merged_width));
    }
    ws.batch.ApplyJoin(left_index, *right, std::move(right_rows));
    ws.binding.AddTable(*right);
  }
  return ws;
}

/// Resolves and constant-folds the WHERE predicates. Called only when
/// the working set is non-empty: the reference binds WHERE slots
/// and evaluates subqueries lazily per row, so on empty input it reports
/// no error — and neither do we. Scalar subqueries are evaluated once
/// here (hoisted) instead of per row.
Result<std::vector<PreparedPredicate>> PreparePredicates(
    const dvq::Condition& cond, const ColumnBatch& batch,
    const SlotBinding& binding, const storage::DatabaseData& db,
    const ExecOptions& options) {
  std::vector<PreparedPredicate> out;
  out.reserve(cond.predicates.size());
  for (const dvq::Predicate& pred : cond.predicates) {
    GRED_ASSIGN_OR_RETURN(std::size_t slot, binding.Resolve(pred.col));
    PreparedPredicate p;
    p.slot = slot;
    p.op = pred.op;
    switch (pred.op) {
      case dvq::CompareOp::kIsNull:
      case dvq::CompareOp::kIsNotNull:
        break;
      case dvq::CompareOp::kLike:
      case dvq::CompareOp::kNotLike:
        if (!pred.literal.has_value()) {
          return Status::ExecutionError("LIKE without a pattern");
        }
        p.pattern = pred.literal->string_value;
        break;
      case dvq::CompareOp::kIn:
      case dvq::CompareOp::kNotIn:
        p.in_values.reserve(pred.in_list.size());
        for (const dvq::Literal& lit : pred.in_list) {
          p.in_values.push_back(LiteralToValue(lit));
        }
        break;
      default: {
        if (pred.subquery != nullptr) {
          GRED_ASSIGN_OR_RETURN(
              p.rhs, EvaluateScalarSubquery(*pred.subquery, db, options));
        } else if (pred.literal.has_value()) {
          p.rhs = LiteralToValue(*pred.literal);
        } else {
          return Status::ExecutionError("predicate missing right-hand side");
        }
        p.dense_int_fast = p.rhs.is_int() && batch.SlotIsDenseInt(slot);
        break;
      }
    }
    out.push_back(std::move(p));
  }
  return out;
}

Result<ResultSet> ExecuteColumnar(const dvq::Query& q,
                                  const storage::DatabaseData& db,
                                  const ExecOptions& options) {
  ExecContext* guard = options.context;
  const ValueHashFn vhash = options.value_hash;
  GRED_ASSIGN_OR_RETURN(ColumnarWorkingSet ws,
                        BuildJoinedBatch(q, db, options));
  SlotBinding& binding = ws.binding;
  ColumnBatch& batch = ws.batch;

  // Filter: evaluate each predicate into a 0/1 bitmap per chunk, fold
  // the OR-of-AND-groups structure with byte-wise AND/OR, then compact
  // the batch once.
  if (q.where.has_value() && batch.num_rows() > 0) {
    GRED_ASSIGN_OR_RETURN(
        std::vector<PreparedPredicate> preds,
        PreparePredicates(*q.where, batch, binding, db, options));
    const std::size_t n = batch.num_rows();
    std::vector<ColumnView> views;
    views.reserve(preds.size());
    for (const PreparedPredicate& p : preds) views.push_back(batch.View(p.slot));
    std::vector<std::uint8_t> keep(n, 0);
    std::vector<std::uint8_t> acc_or(kExecChunkRows);
    std::vector<std::uint8_t> acc_and(kExecChunkRows);
    std::vector<std::uint8_t> tmp(kExecChunkRows);
    for (std::size_t begin = 0; begin < n; begin += kExecChunkRows) {
      const std::size_t end = std::min(n, begin + kExecChunkRows);
      const std::size_t len = end - begin;
      GRED_CHARGE(guard, ChargeTicks(len));
      std::fill_n(acc_or.begin(), len, std::uint8_t{0});
      std::fill_n(acc_and.begin(), len, std::uint8_t{1});
      for (std::size_t i = 0; i < preds.size(); ++i) {
        EvalPredicateRange(views[i], preds[i], begin, end, tmp.data());
        AndInto(acc_and.data(), tmp.data(), len);
        const bool end_of_group = i + 1 >= preds.size() ||
                                  q.where->connectors[i] == dvq::LogicalOp::kOr;
        if (end_of_group) {
          OrInto(acc_or.data(), acc_and.data(), len);
          std::fill_n(acc_and.begin(), len, std::uint8_t{1});
        }
      }
      std::copy_n(acc_or.begin(), len, keep.begin() + static_cast<std::ptrdiff_t>(begin));
    }
    batch.Filter(keep);
  }

  // Binning rewrites the binned column as an owned dense vector.
  if (q.bin.has_value()) {
    GRED_ASSIGN_OR_RETURN(std::size_t bin_slot,
                          binding.Resolve(q.bin->col));
    const std::size_t n = batch.num_rows();
    const ColumnView view = batch.View(bin_slot);
    std::vector<Value> binned(n);
    for (std::size_t begin = 0; begin < n; begin += kExecChunkRows) {
      const std::size_t end = std::min(n, begin + kExecChunkRows);
      GRED_CHARGE(guard, ChargeTicks(end - begin));
      for (std::size_t i = begin; i < end; ++i) {
        binned[i] = BinValue(view.at(i), q.bin->unit);
      }
    }
    batch.ReplaceWithOwned(bin_slot, std::move(binned));
  }

  std::vector<dvq::SelectExpr> computed = q.select;
  std::optional<std::size_t> order_slot = UnifyOrderBy(q, binding, &computed);

  bool has_aggregate = false;
  for (const dvq::SelectExpr& e : computed) {
    if (e.agg != dvq::AggFunc::kNone) has_aggregate = true;
  }

  // Computed output, column-major; cells are copied out of the batch
  // exactly once, here.
  std::vector<std::vector<Value>> out_cols(computed.size());
  std::size_t out_len = 0;
  const auto npos = static_cast<std::size_t>(-1);
  if (has_aggregate || !q.group_by.empty()) {
    std::vector<dvq::ColumnRef> keys = q.group_by;
    if (keys.empty()) {
      for (const dvq::SelectExpr& e : q.select) {
        if (e.agg == dvq::AggFunc::kNone) keys.push_back(e.col);
      }
    }
    std::vector<std::size_t> key_slots;
    key_slots.reserve(keys.size());
    for (const dvq::ColumnRef& k : keys) {
      GRED_ASSIGN_OR_RETURN(std::size_t slot, binding.Resolve(k));
      key_slots.push_back(slot);
    }
    std::vector<std::size_t> value_slots(computed.size(), npos);
    for (std::size_t i = 0; i < computed.size(); ++i) {
      if (computed[i].col.column == "*") continue;
      GRED_ASSIGN_OR_RETURN(std::size_t slot,
                            binding.Resolve(computed[i].col));
      value_slots[i] = slot;
    }
    std::vector<ColumnView> key_views;
    key_views.reserve(key_slots.size());
    for (std::size_t slot : key_slots) key_views.push_back(batch.View(slot));
    std::vector<ColumnView> value_views(computed.size());
    for (std::size_t i = 0; i < computed.size(); ++i) {
      if (value_slots[i] != npos) value_views[i] = batch.View(value_slots[i]);
    }

    const std::size_t n = batch.num_rows();
    GroupIndex index;
    std::vector<std::vector<Value>> group_keys;
    std::vector<std::vector<AggAccumulator>> group_accs;
    std::vector<std::uint32_t> group_first_row;
    for (std::size_t begin = 0; begin < n; begin += kExecChunkRows) {
      const std::size_t end = std::min(n, begin + kExecChunkRows);
      GRED_CHARGE(guard, ChargeTicks(end - begin));
      std::uint64_t new_groups = 0;
      for (std::size_t i = begin; i < end; ++i) {
        std::uint64_t h = kGroupHashSeed;
        for (const ColumnView& kv : key_views) {
          h = CombineKeyHash(h, HashValueWith(vhash, kv.at(i)));
        }
        const auto [gid, inserted] =
            index.FindOrInsert(h, [&](std::uint32_t g) {
              const std::vector<Value>& gk = group_keys[g];
              for (std::size_t k = 0; k < key_views.size(); ++k) {
                if (gk[k] != key_views[k].at(i)) return false;
              }
              return true;
            });
        if (inserted) {
          ++new_groups;
          std::vector<Value> key;
          key.reserve(key_views.size());
          for (const ColumnView& kv : key_views) key.push_back(kv.at(i));
          group_keys.push_back(std::move(key));
          std::vector<AggAccumulator> accs;
          accs.reserve(computed.size());
          for (const dvq::SelectExpr& e : computed) accs.emplace_back(e);
          group_accs.push_back(std::move(accs));
          group_first_row.push_back(static_cast<std::uint32_t>(i));
        }
        for (std::size_t c = 0; c < computed.size(); ++c) {
          if (computed[c].agg == dvq::AggFunc::kNone) continue;
          const Value v = value_slots[c] == npos ? Value::Null()
                                                 : value_views[c].at(i);
          group_accs[gid][c].Add(v);
        }
      }
      // New groups materialize their key + accumulator row, same price
      // per group as the reference.
      GRED_CHARGE(guard,
                  ChargeRows(new_groups, key_slots.size() + computed.size()));
    }
    out_len = group_keys.size();
    for (std::size_t c = 0; c < computed.size(); ++c) {
      out_cols[c].reserve(out_len);
      for (std::size_t g = 0; g < out_len; ++g) {
        if (computed[c].agg == dvq::AggFunc::kNone) {
          out_cols[c].push_back(value_slots[c] == npos
                                    ? Value::Null()
                                    : value_views[c].at(group_first_row[g]));
        } else {
          out_cols[c].push_back(group_accs[g][c].Finish());
        }
      }
    }
  } else {
    // Pure projection: gather only the selected (plus hidden ORDER BY)
    // columns out of the batch.
    std::vector<std::size_t> slots;
    slots.reserve(computed.size());
    for (const dvq::SelectExpr& e : computed) {
      GRED_ASSIGN_OR_RETURN(std::size_t slot, binding.Resolve(e.col));
      slots.push_back(slot);
    }
    std::vector<ColumnView> views;
    views.reserve(slots.size());
    for (std::size_t slot : slots) views.push_back(batch.View(slot));
    const std::size_t n = batch.num_rows();
    for (std::size_t c = 0; c < slots.size(); ++c) out_cols[c].reserve(n);
    for (std::size_t begin = 0; begin < n; begin += kExecChunkRows) {
      const std::size_t end = std::min(n, begin + kExecChunkRows);
      const std::size_t len = end - begin;
      GRED_CHARGE(guard, ChargeTicks(len));
      GRED_CHARGE(guard, ChargeRows(len, slots.size()));
      for (std::size_t c = 0; c < slots.size(); ++c) {
        for (std::size_t i = begin; i < end; ++i) {
          out_cols[c].push_back(views[c].at(i));
        }
      }
    }
    out_len = n;
  }

  // Order: a stable permutation over the (possibly hidden) key column;
  // rows are never physically reordered.
  std::vector<std::uint32_t> perm;
  if (q.order_by.has_value()) {
    GRED_CHARGE(guard, ChargeTicks(out_len));
    ColumnView key_view;
    key_view.values = out_cols[*order_slot].data();
    perm = StableSortPermutation(out_len, key_view, q.order_by->descending);
  }

  // Limit, then materialize the visible columns through the permutation
  // — the single point where result cells are copied row-major.
  std::size_t visible_rows = out_len;
  if (q.limit.has_value() && *q.limit >= 0 &&
      visible_rows > static_cast<std::size_t>(*q.limit)) {
    visible_rows = static_cast<std::size_t>(*q.limit);
  }
  ResultSet rs;
  for (const dvq::SelectExpr& e : q.select) {
    rs.column_names.push_back(e.ToString());
  }
  const std::size_t visible_cols = q.select.size();
  rs.rows.reserve(visible_rows);
  for (std::size_t r = 0; r < visible_rows; ++r) {
    const std::size_t src = perm.empty() ? r : perm[r];
    std::vector<Value> row;
    row.reserve(visible_cols);
    for (std::size_t c = 0; c < visible_cols; ++c) {
      row.push_back(out_cols[c][src]);
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

}  // namespace

std::string ResultSet::ToString(std::size_t max_rows) const {
  std::string out;
  out += strings::Join(column_names, " | ") + "\n";
  for (std::size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    std::vector<std::string> cells;
    cells.reserve(rows[r].size());
    for (const Value& v : rows[r]) cells.push_back(v.ToString());
    out += strings::Join(cells, " | ") + "\n";
  }
  if (rows.size() > max_rows) {
    out += strings::Format("... (%zu more rows)\n", rows.size() - max_rows);
  }
  return out;
}

Result<ResultSet> Execute(const dvq::Query& query,
                          const storage::DatabaseData& db,
                          const ExecOptions& options) {
  return ExecuteColumnar(dvq::ResolveAliases(query), db, options);
}

Result<ResultSet> Execute(const dvq::DVQ& query,
                          const storage::DatabaseData& db,
                          const ExecOptions& options) {
  return Execute(query.query, db, options);
}

}  // namespace gred::exec
