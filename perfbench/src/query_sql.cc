#include "query_sql.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

using polaris::common::Result;
using polaris::common::Status;
using polaris::engine::QuerySpec;
using polaris::exec::AggFunc;
using polaris::exec::CompareOp;
using polaris::format::ColumnType;
using polaris::format::Value;

namespace {

const char* AggName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kAvg: return "AVG";
  }
  return "COUNT";
}

const char* OpText(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "=";
}

Result<std::string> LiteralText(const Value& v) {
  if (v.is_null) return std::string("NULL");
  switch (v.type) {
    case ColumnType::kInt64:
      return std::to_string(v.i64);
    case ColumnType::kDouble: {
      if (!std::isfinite(v.f64)) {
        return Status::InvalidArgument("non-finite double literal");
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.f64);
      std::string text = buf;
      if (text.find_first_of("eE") != std::string::npos) {
        return Status::InvalidArgument("double literal needs an exponent: " +
                                       text);
      }
      if (text.find('.') == std::string::npos) text += ".0";
      return text;
    }
    case ColumnType::kString: {
      std::string text = "'";
      for (char c : v.str) {
        if (c == '\'') text += '\'';
        text += c;
      }
      return text + "'";
    }
  }
  return Status::InvalidArgument("unsupported literal type");
}

bool SameValue(const Value& a, const Value& b) {
  if (a.type != b.type || a.is_null != b.is_null) return false;
  if (a.is_null) return true;
  switch (a.type) {
    case ColumnType::kInt64: return a.i64 == b.i64;
    case ColumnType::kDouble: return a.f64 == b.f64;
    case ColumnType::kString: return a.str == b.str;
  }
  return false;
}

}  // namespace

Result<std::string> RenderQuerySql(const std::string& table,
                                   const QuerySpec& spec) {
  std::string sql = "SELECT ";
  bool first = true;
  auto item = [&](const std::string& text) {
    if (!first) sql += ", ";
    sql += text;
    first = false;
  };
  if (spec.aggregates.empty()) {
    if (!spec.group_by.empty()) {
      return Status::InvalidArgument("GROUP BY without aggregates");
    }
    if (spec.projection.empty()) item("*");
    for (const auto& column : spec.projection) item(column);
  } else {
    for (const auto& column : spec.group_by) item(column);
    for (const auto& agg : spec.aggregates) {
      const std::string arg = agg.column.empty() ? "*" : agg.column;
      item(std::string(AggName(agg.func)) + "(" + arg + ") AS " +
           agg.output_name);
    }
  }
  sql += " FROM " + table;
  for (size_t i = 0; i < spec.filter.predicates.size(); ++i) {
    const auto& p = spec.filter.predicates[i];
    POLARIS_ASSIGN_OR_RETURN(std::string literal, LiteralText(p.literal));
    sql += i == 0 ? " WHERE " : " AND ";
    sql += p.column + " " + OpText(p.op) + " " + literal;
  }
  for (size_t i = 0; i < spec.group_by.size(); ++i) {
    sql += i == 0 ? " GROUP BY " : ", ";
    sql += spec.group_by[i];
  }
  return sql;
}

QuerySpec SpecFromParsed(const polaris::sql::ParsedStatement& stmt) {
  QuerySpec spec;
  spec.filter = stmt.where;
  bool has_aggregate = false;
  for (const auto& item : stmt.select_items) {
    if (item.aggregate.has_value()) has_aggregate = true;
  }
  for (const auto& item : stmt.select_items) {
    if (item.aggregate.has_value()) {
      spec.aggregates.push_back({*item.aggregate, item.column, item.alias});
    } else if (!has_aggregate && !item.star) {
      spec.projection.push_back(item.column);
    }
  }
  if (has_aggregate) spec.group_by = stmt.group_by;
  return spec;
}

bool SameSpec(const QuerySpec& a, const QuerySpec& b) {
  if (a.projection != b.projection || a.group_by != b.group_by) return false;
  if (a.aggregates.size() != b.aggregates.size()) return false;
  for (size_t i = 0; i < a.aggregates.size(); ++i) {
    const auto& x = a.aggregates[i];
    const auto& y = b.aggregates[i];
    if (x.func != y.func || x.column != y.column ||
        x.output_name != y.output_name) {
      return false;
    }
  }
  const auto& pa = a.filter.predicates;
  const auto& pb = b.filter.predicates;
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].column != pb[i].column || pa[i].op != pb[i].op ||
        !SameValue(pa[i].literal, pb[i].literal)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
