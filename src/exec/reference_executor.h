#ifndef GREDVIS_EXEC_REFERENCE_EXECUTOR_H_
#define GREDVIS_EXEC_REFERENCE_EXECUTOR_H_

#include <string>

#include "exec/executor.h"

/// The row-at-a-time reference executor: the executable semantics that
/// exec::Execute is checked against. Every operator materializes whole
/// rows and charges the guard per row; joins are hash joins with the
/// same build/probe sides as production. It produces bit-identical
/// ResultSets and, for subquery-free queries, identical guard charges
/// (asserted by tests/exec_reference_test.cc).
///
/// Test and benchmark code only: this library (gred_exec_reference) is
/// not part of the `gredvis` umbrella, so no serving or eval binary
/// links it.
namespace gred::exec::reference {

/// Same contract as exec::Execute. Scalar subqueries recurse into the
/// reference, per outer row, so with a subquery the reference charges at
/// least what the production executor (which hoists them) charges.
Result<ResultSet> Execute(const dvq::Query& query,
                          const storage::DatabaseData& db,
                          const ExecOptions& options = {});

Result<ResultSet> Execute(const dvq::DVQ& query,
                          const storage::DatabaseData& db,
                          const ExecOptions& options = {});

/// Type-exact fingerprint of a ResultSet: column names, row order, and
/// for each cell a kind tag plus an exact payload (ints by value, reals
/// by bit pattern, text raw). Any divergence between the executors —
/// including int-vs-real kind drift or a different double-accumulation
/// order — changes it.
std::string Fingerprint(const ResultSet& rs);

}  // namespace gred::exec::reference

#endif  // GREDVIS_EXEC_REFERENCE_EXECUTOR_H_
