#ifndef PRISMA_SQL_LEXER_H_
#define PRISMA_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace prisma::sql {

enum class TokenKind : uint8_t {
  kIdentifier,  // Unquoted name; keywords are identifiers until matched.
  kIntLiteral,
  kDoubleLiteral,
  kStringLiteral,  // '...' with '' escaping.
  kSymbol,         // Operators and punctuation, text holds the lexeme.
  kEnd,
};

/// One lexical token. `text` is upper-cased for identifiers when compared
/// against keywords by the parser; literals keep their exact value.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;        // Identifier/symbol lexeme (original case).
  int64_t int_value = 0;   // kIntLiteral.
  double double_value = 0; // kDoubleLiteral.
  size_t offset = 0;       // Byte offset in the input, for error messages.

  bool IsSymbol(const char* s) const;
  /// Case-insensitive keyword test on identifiers.
  bool IsKeyword(const char* kw) const;
};

/// Splits a SQL (or PRISMAlog) statement into tokens; fails on unknown
/// characters, unterminated strings and numeric literals out of range.
StatusOr<std::vector<Token>> Tokenize(const std::string& input);

}  // namespace prisma::sql

#endif  // PRISMA_SQL_LEXER_H_
