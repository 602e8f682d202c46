#ifndef PERFBENCH_QUERY_SQL_H_
#define PERFBENCH_QUERY_SQL_H_

#include <string>

#include "common/result.h"
#include "engine/engine.h"
#include "sql/parser.h"

namespace perfbench {

/// Renders a programmatic query as the SQL text the session layer accepts:
///   SELECT <group cols>, <AGG(col) AS name>... FROM <table>
///     [WHERE <col op literal> AND ...] [GROUP BY <cols>]
/// (or a plain projection when the spec has no aggregates). Doubles are
/// written with a decimal point so they parse back as DOUBLE literals.
/// InvalidArgument for a literal the SQL surface cannot spell.
polaris::common::Result<std::string> RenderQuerySql(
    const std::string& table, const polaris::engine::QuerySpec& spec);

/// The QuerySpec a parsed SELECT denotes (the session's own mapping:
/// aggregate items become AggSpecs, plain items must be GROUP BY columns).
polaris::engine::QuerySpec SpecFromParsed(
    const polaris::sql::ParsedStatement& stmt);

/// Structural equality, literal types included.
bool SameSpec(const polaris::engine::QuerySpec& a,
              const polaris::engine::QuerySpec& b);

}  // namespace perfbench

#endif  // PERFBENCH_QUERY_SQL_H_
