#ifndef SIMDB_AQL_PARSER_H_
#define SIMDB_AQL_PARSER_H_

#include <string_view>

#include "aql/ast.h"
#include "common/result.h"

namespace simdb::aql {

/// Deepest nesting of expressions, unary operators and FLWOR subqueries the
/// parser accepts; deeper input is a kParseError. Real queries (the AQL+
/// three-stage template, examples/, the differential generator) nest a few
/// levels; the bound keeps recursive descent's stack use small even with
/// sanitizer-sized frames.
inline constexpr int kMaxParseDepth = 128;

/// Parses a full AQL/AQL+ program: statements separated by ';' with an
/// optional trailing query expression.
Result<Program> ParseProgram(std::string_view text);

/// Parses a single expression (usually a FLWOR subquery); used by the AQL+
/// framework to compile rewrite templates during optimization.
Result<AExprPtr> ParseExpression(std::string_view text);

}  // namespace simdb::aql

#endif  // SIMDB_AQL_PARSER_H_
