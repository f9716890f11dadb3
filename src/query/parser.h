#ifndef CCDB_QUERY_PARSER_H_
#define CCDB_QUERY_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"
#include "query/ast.h"

namespace ccdb {

/// Parses a CALC_F formula. Grammar (precedence low to high):
///
///   formula    := or_f
///   or_f       := and_f ('or' and_f)*
///   and_f      := unary_f ('and' unary_f)*
///   unary_f    := 'not' unary_f
///              | ('exists'|'forall') IDENT+ '(' formula ')'
///              | AGG '[' IDENT (',' IDENT)* ']' '(' formula ')'
///                      '(' IDENT (',' IDENT)* ')'
///              | 'true' | 'false'
///              | '(' formula ')'
///              | IDENT '(' term (',' term)* ')'        -- relation atom
///              | term RELOP term
///   term       := factor (('+'|'-') factor)*
///   factor     := power (('*'|'/') power)*
///   power      := atom ('^' NAT)?
///   atom       := NUMBER | IDENT | FUNC '(' term ')' | '(' term ')'
///              | '-' atom
///   RELOP      := '<=' | '<' | '=' | '!=' | '>=' | '>'
///
/// AGG names: MIN MAX AVG LENGTH SURFACE VOLUME EVAL; FUNC names: exp log
/// sin cos sqrt atan. Example (the paper's Example 5.1):
///
///   SURFACE[x, y](S(x, y) and y <= 9)(z)
/// A non-null `elapsed_us` gets the "parse.formula" span's time.
StatusOr<std::shared_ptr<const QFormula>> ParseFormula(
    std::string_view text, std::int64_t* elapsed_us = nullptr);

/// Parses a term alone (for tests and relation definitions).
StatusOr<std::shared_ptr<const QTerm>> ParseTerm(std::string_view text);

/// Parses a relation definition "Name(v1, ..., vk) := formula" where the
/// formula is quantifier-free, relation-free, aggregate-free and mentions
/// only the column variables. Returns the named ConstraintRelation.
struct ParsedRelationDef {
  std::string name;
  ConstraintRelation relation;
  std::vector<std::string> column_names;
};
StatusOr<ParsedRelationDef> ParseRelationDef(std::string_view text);

}  // namespace ccdb

#endif  // CCDB_QUERY_PARSER_H_
