#include "common/value.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace prisma {
namespace {

uint64_t HashBytes(const char* data, size_t n) {
  // FNV-1a; the caller mixes the result.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

// Rank used to order values of incomparable types deterministically.
int TypeRank(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 2;  // Numerics share a rank and compare by value.
    case DataType::kString:
      return 3;
  }
  return 4;
}

}  // namespace

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return "BOOL";
    case DataType::kInt64:
      return "INT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

void Value::CorruptVariant() {
  PRISMA_CHECK(false) << "corrupt Value variant";
  std::abort();
}

double Value::AsDouble() const {
  if (auto* i = std::get_if<int64_t>(&rep_)) return static_cast<double>(*i);
  return std::get<double>(rep_);
}

int Value::Compare(const Value& other) const {
  const DataType a = type();
  const DataType b = other.type();
  const int ra = TypeRank(a);
  const int rb = TypeRank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return static_cast<int>(bool_value()) - static_cast<int>(other.bool_value());
    case DataType::kInt64:
      if (b == DataType::kInt64) {
        const int64_t x = int_value();
        const int64_t y = other.int_value();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      return CompareDoubles(AsDouble(), other.AsDouble());
    case DataType::kDouble:
      return CompareDoubles(AsDouble(), other.AsDouble());
    case DataType::kString:
      return string_value().compare(other.string_value());
  }
  return 0;
}

uint64_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return HashNull();
    case DataType::kBool:
      return HashBool(bool_value());
    case DataType::kInt64:
      return HashInt(int_value());
    case DataType::kDouble:
      return HashDouble(double_value());
    case DataType::kString:
      return HashString(string_value());
  }
  return 0;
}

uint64_t Value::HashDouble(double d) {
  // Integral doubles must hash like the equal INT value.
  if (d >= -9.2e18 && d <= 9.2e18 && d == std::floor(d)) {
    return HashInt(static_cast<int64_t>(d));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

uint64_t Value::HashString(std::string_view v) {
  return Mix64(HashBytes(v.data(), v.size()));
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case DataType::kInt64:
      return std::to_string(int_value());
    case DataType::kDouble: {
      std::string s = std::to_string(double_value());
      return s;
    }
    case DataType::kString:
      return "'" + string_value() + "'";
  }
  return "?";
}

size_t Value::ByteSize() const {
  switch (type()) {
    case DataType::kNull:
      return 1;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 8;
    case DataType::kString:
      return 16 + string_value().size();
  }
  return 1;
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

bool IsCoercible(DataType from, DataType to) {
  if (from == to) return true;
  if (from == DataType::kNull) return true;
  if (from == DataType::kInt64 && to == DataType::kDouble) return true;
  return false;
}

StatusOr<Value> CoerceValue(const Value& value, DataType type) {
  if (value.type() == type || value.is_null()) return value;
  if (value.type() == DataType::kInt64 && type == DataType::kDouble) {
    return Value::Double(static_cast<double>(value.int_value()));
  }
  return InvalidArgumentError(std::string("cannot coerce ") +
                              DataTypeName(value.type()) + " to " +
                              DataTypeName(type));
}

}  // namespace prisma
