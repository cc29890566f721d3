#ifndef GREDVIS_EXEC_CHUNK_H_
#define GREDVIS_EXEC_CHUNK_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dvq/ast.h"
#include "storage/table.h"
#include "util/status.h"

/// Charges the guard (when present) and propagates a tripped budget out
/// of the enclosing function. Unguarded execution (null context) is a
/// branch per use and nothing else, keeping the default path identical
/// to the pre-guard executor.
#define GRED_CHARGE(ctx, call)                               \
  do {                                                       \
    if ((ctx) != nullptr) GRED_RETURN_IF_ERROR((ctx)->call); \
  } while (false)

namespace gred::exec {

/// Rows processed per guard charge in the vectorized engine. Charges are
/// batched at this granularity (DESIGN.md executor section); totals per
/// operator are identical to the reference executor's per-row charges,
/// so a query exhausts the same budgets in both.
inline constexpr std::size_t kExecChunkRows = 1024;

/// Maps column references to slot indices in the joined working set.
/// Shared with the reference executor so name resolution (and therefore
/// which physical column a reference binds to) is identical.
class SlotBinding {
 public:
  void AddTable(const storage::DataTable& table) {
    for (const schema::Column& c : table.def().columns()) {
      slots_.emplace_back(table.name(), c.name);
    }
  }

  std::size_t size() const { return slots_.size(); }

  Result<std::size_t> Resolve(const dvq::ColumnRef& ref) const;

 private:
  std::vector<std::pair<std::string, std::string>> slots_;
};

// Binding helpers shared with the reference executor
// (exec/reference_executor.h), so both resolve identically.

/// Converts a DVQ literal to the storage value it compares against.
storage::Value LiteralToValue(const dvq::Literal& lit);

/// True when the ORDER BY expression `order` denotes the already-selected
/// expression `sel`. Aggregate and DISTINCT must match exactly; column
/// matching follows SQL's ORDER BY resolution rules rather than surface
/// text:
///  * A bare (unqualified) ORDER BY name binds to the result column of
///    that name, whatever qualifier the select list spelled it with.
///  * A qualified ORDER BY reference matches iff it resolves to the same
///    working-set slot as the selected column, so `ORDER BY t.c` unifies
///    with `SELECT c` (and never with a same-named column of another
///    table). Unresolvable references fall back to textual comparison so
///    the unknown name still surfaces through the normal resolution
///    error path.
bool OrderMatchesSelect(const dvq::SelectExpr& sel,
                        const dvq::SelectExpr& order,
                        const SlotBinding& binding);

/// Unifies ORDER BY with the select list, appending the order expression
/// as a hidden trailing computed column when it is not already selected.
/// Matching is semantic (see OrderMatchesSelect), not raw-text: the old
/// spelling comparison meant `SELECT parent.v ... ORDER BY v` failed to
/// unify and the hidden column re-resolved to the *first* same-named
/// slot, which after a join can belong to a different table entirely.
std::optional<std::size_t> UnifyOrderBy(const dvq::Query& q,
                                        const SlotBinding& binding,
                                        std::vector<dvq::SelectExpr>* computed);

/// A borrowed, loop-friendly view of one working-set column. `values`
/// points either at a storage column (indexed through `rowids`) or at a
/// dense owned column (`rowids == nullptr`). Invalidated by any mutation
/// of the owning ColumnBatch (Filter / ApplyJoin / ReplaceWithOwned).
struct ColumnView {
  const storage::Value* values = nullptr;
  const std::uint32_t* rowids = nullptr;

  const storage::Value& at(std::size_t i) const {
    return rowids == nullptr ? values[i] : values[rowids[i]];
  }
};

/// The vectorized engine's working set: a set of column slots over the
/// joined tables, materialized lazily. Borrowed slots reference storage
/// columns through per-table row-id vectors, so filters and joins only
/// shuffle 32-bit indices; owned slots (bin labels) are dense vectors.
/// Cell values are never copied until the final ResultSet is built.
class ColumnBatch {
 public:
  std::size_t num_rows() const { return length_; }
  std::size_t num_slots() const { return slots_.size(); }

  /// Appends `table`'s columns as borrowed slots. The first table scans
  /// all rows (identity row ids); joined tables are appended via
  /// ApplyJoin instead.
  void AddScanTable(const storage::DataTable& table);

  /// Applies an equi-join result: existing columns are gathered through
  /// `left_index` (one entry per output row, indexing current rows) and
  /// `right`'s columns are appended with `right_rows` as their row ids.
  void ApplyJoin(const std::vector<std::uint32_t>& left_index,
                 const storage::DataTable& right,
                 std::vector<std::uint32_t> right_rows);

  /// Keeps exactly the rows whose `keep` byte is nonzero.
  void Filter(const std::vector<std::uint8_t>& keep);

  /// Replaces `slot` with an owned dense column (length must equal
  /// num_rows()). Used by BIN, which rewrites values in place.
  void ReplaceWithOwned(std::size_t slot,
                        std::vector<storage::Value> values);

  /// View of `slot` for tight loops; re-acquire after any mutation.
  ColumnView View(std::size_t slot) const;

  /// True when `slot` borrows a storage column whose non-NULL cells are
  /// all ints and which contains no NULLs (enables typed predicate
  /// kernels). Scans the storage column once per call.
  bool SlotIsDenseInt(std::size_t slot) const;

 private:
  struct Source {
    const storage::DataTable* table = nullptr;
    std::vector<std::uint32_t> rowids;
    bool identity = false;  // rowids == [0, n): Views skip the gather
  };
  struct Slot {
    int source = -1;  // -1: owned
    std::size_t column = 0;
    std::vector<storage::Value> owned;
  };

  std::vector<Source> sources_;
  std::vector<Slot> slots_;
  std::size_t length_ = 0;
};

}  // namespace gred::exec

#endif  // GREDVIS_EXEC_CHUNK_H_
