#include "exec/chunk.h"

#include "util/strings.h"

namespace gred::exec {

using storage::Value;

Result<std::size_t> SlotBinding::Resolve(const dvq::ColumnRef& ref) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!strings::EqualsIgnoreCase(slots_[i].second, ref.column)) continue;
    if (!ref.table.empty() &&
        !strings::EqualsIgnoreCase(slots_[i].first, ref.table)) {
      continue;
    }
    return i;
  }
  return Status::ExecutionError("unknown column '" + ref.ToString() + "'");
}

Value LiteralToValue(const dvq::Literal& lit) {
  switch (lit.kind) {
    case dvq::Literal::Kind::kInt:
      return Value::Int(lit.int_value);
    case dvq::Literal::Kind::kReal:
      return Value::Real(lit.real_value);
    case dvq::Literal::Kind::kString:
      return Value::Text(lit.string_value);
  }
  return Value::Null();
}

bool OrderMatchesSelect(const dvq::SelectExpr& sel,
                        const dvq::SelectExpr& order,
                        const SlotBinding& binding) {
  if (sel.agg != order.agg || sel.distinct != order.distinct) return false;
  if (sel.col.column == "*" || order.col.column == "*") {
    return sel.col.EqualsIgnoreCase(order.col);
  }
  if (order.col.table.empty()) {
    return strings::EqualsIgnoreCase(sel.col.column, order.col.column);
  }
  Result<std::size_t> ss = binding.Resolve(sel.col);
  Result<std::size_t> so = binding.Resolve(order.col);
  if (ss.ok() && so.ok()) return ss.value() == so.value();
  return sel.EqualsIgnoreCase(order);
}

std::optional<std::size_t> UnifyOrderBy(const dvq::Query& q,
                                        const SlotBinding& binding,
                                        std::vector<dvq::SelectExpr>* computed) {
  if (!q.order_by.has_value()) return std::nullopt;
  for (std::size_t i = 0; i < computed->size(); ++i) {
    if (OrderMatchesSelect((*computed)[i], q.order_by->expr, binding)) {
      return i;
    }
  }
  computed->push_back(q.order_by->expr);
  return computed->size() - 1;
}

void ColumnBatch::AddScanTable(const storage::DataTable& table) {
  Source source;
  source.table = &table;
  source.identity = true;
  const int source_index = static_cast<int>(sources_.size());
  sources_.push_back(std::move(source));
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    Slot slot;
    slot.source = source_index;
    slot.column = c;
    slots_.push_back(std::move(slot));
  }
  length_ = table.num_rows();
}

void ColumnBatch::ApplyJoin(const std::vector<std::uint32_t>& left_index,
                            const storage::DataTable& right,
                            std::vector<std::uint32_t> right_rows) {
  const std::size_t n = left_index.size();
  for (Source& source : sources_) {
    std::vector<std::uint32_t> gathered(n);
    if (source.identity) {
      gathered = left_index;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        gathered[i] = source.rowids[left_index[i]];
      }
    }
    source.rowids = std::move(gathered);
    source.identity = false;
  }
  for (Slot& slot : slots_) {
    if (slot.source >= 0) continue;
    std::vector<Value> gathered(n);
    for (std::size_t i = 0; i < n; ++i) {
      gathered[i] = slot.owned[left_index[i]];
    }
    slot.owned = std::move(gathered);
  }
  Source source;
  source.table = &right;
  source.rowids = std::move(right_rows);
  const int source_index = static_cast<int>(sources_.size());
  sources_.push_back(std::move(source));
  for (std::size_t c = 0; c < right.num_columns(); ++c) {
    Slot slot;
    slot.source = source_index;
    slot.column = c;
    slots_.push_back(std::move(slot));
  }
  length_ = n;
}

void ColumnBatch::Filter(const std::vector<std::uint8_t>& keep) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < length_; ++i) {
    if (keep[i] != 0) ++kept;
  }
  for (Source& source : sources_) {
    std::vector<std::uint32_t> compact;
    compact.reserve(kept);
    for (std::size_t i = 0; i < length_; ++i) {
      if (keep[i] == 0) continue;
      compact.push_back(source.identity ? static_cast<std::uint32_t>(i)
                                        : source.rowids[i]);
    }
    source.rowids = std::move(compact);
    source.identity = false;
  }
  for (Slot& slot : slots_) {
    if (slot.source >= 0) continue;
    std::vector<Value> compact;
    compact.reserve(kept);
    for (std::size_t i = 0; i < length_; ++i) {
      if (keep[i] != 0) compact.push_back(std::move(slot.owned[i]));
    }
    slot.owned = std::move(compact);
  }
  length_ = kept;
}

void ColumnBatch::ReplaceWithOwned(std::size_t slot,
                                   std::vector<Value> values) {
  slots_[slot].source = -1;
  slots_[slot].column = 0;
  slots_[slot].owned = std::move(values);
}

ColumnView ColumnBatch::View(std::size_t slot) const {
  const Slot& s = slots_[slot];
  ColumnView view;
  if (s.source < 0) {
    view.values = s.owned.data();
    return view;
  }
  const Source& source = sources_[static_cast<std::size_t>(s.source)];
  view.values = source.table->column(s.column).data();
  if (!source.identity) view.rowids = source.rowids.data();
  return view;
}

bool ColumnBatch::SlotIsDenseInt(std::size_t slot) const {
  const Slot& s = slots_[slot];
  if (s.source < 0) return false;
  const Source& source = sources_[static_cast<std::size_t>(s.source)];
  storage::DataTable::ColumnStats stats =
      source.table->ScanColumn(s.column);
  return !stats.has_null && stats.all_int;
}

}  // namespace gred::exec
