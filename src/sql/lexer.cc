#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

#include "common/str_util.h"

namespace prisma::sql {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

bool Token::IsSymbol(const char* s) const {
  return kind == TokenKind::kSymbol && text == s;
}

bool Token::IsKeyword(const char* kw) const {
  return kind == TokenKind::kIdentifier && EqualsIgnoreCase(text, kw);
}

StatusOr<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comments: -- to end of line (SQL) and % (PRISMAlog).
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    Token t;
    t.offset = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(input[j])) ++j;
      t.kind = TokenKind::kIdentifier;
      t.text = input.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool is_double = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) ++j;
      if (j < n && input[j] == '.' && j + 1 < n &&
          std::isdigit(static_cast<unsigned char>(input[j + 1]))) {
        is_double = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) {
          ++j;
        }
      }
      const std::string num = input.substr(i, j - i);
      const char* const end = num.data() + num.size();
      std::from_chars_result parsed;
      if (is_double) {
        t.kind = TokenKind::kDoubleLiteral;
        parsed = std::from_chars(num.data(), end, t.double_value);
      } else {
        t.kind = TokenKind::kIntLiteral;
        parsed = std::from_chars(num.data(), end, t.int_value);
      }
      if (parsed.ec != std::errc()) {
        return InvalidArgumentError(
            StrFormat("numeric literal %s at offset %zu is out of range",
                      num.c_str(), i));
      }
      t.text = num;
      i = j;
    } else if (c == '\'') {
      std::string value;
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (input[j] == '\'') {
          if (j + 1 < n && input[j + 1] == '\'') {  // Escaped quote.
            value += '\'';
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        value += input[j];
        ++j;
      }
      if (!closed) {
        return InvalidArgumentError(
            StrFormat("unterminated string literal at offset %zu", i));
      }
      t.kind = TokenKind::kStringLiteral;
      t.text = std::move(value);
      i = j;
    } else {
      // Multi-character symbols first.
      static const char* kTwoChar[] = {"<>", "!=", "<=", ">=", ":-"};
      t.kind = TokenKind::kSymbol;
      bool matched = false;
      for (const char* sym : kTwoChar) {
        if (i + 1 < n && input[i] == sym[0] && input[i + 1] == sym[1]) {
          t.text = sym;
          i += 2;
          matched = true;
          break;
        }
      }
      if (!matched) {
        static const std::string kOneChar = "=<>+-*/%(),.;?";
        if (kOneChar.find(c) == std::string::npos) {
          return InvalidArgumentError(
              StrFormat("unexpected character '%c' at offset %zu", c, i));
        }
        t.text = std::string(1, c);
        ++i;
      }
    }
    tokens.push_back(std::move(t));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace prisma::sql
