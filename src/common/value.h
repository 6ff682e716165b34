#ifndef PRISMA_COMMON_VALUE_H_
#define PRISMA_COMMON_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/status.h"

namespace prisma {

/// Column data types supported by the PRISMA relational model.
enum class DataType : uint8_t {
  kNull = 0,  // Type of the NULL literal before coercion.
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// Returns the SQL-ish name of a data type ("INT", "DOUBLE", ...).
const char* DataTypeName(DataType type);

/// A dynamically typed scalar value: NULL, BOOL, INT, DOUBLE or STRING.
///
/// Values are ordered within a type (NULL sorts before everything); mixed
/// INT/DOUBLE comparisons promote to double. Cross-type comparisons between
/// incomparable types (e.g. INT vs STRING) are rejected by the expression
/// type checker before evaluation, and fall back to type-tag order here.
class Value {
 public:
  /// Constructs the NULL value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Rep(v)); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  /// The variant index is the DataType (see the static_asserts below); a
  /// valueless variant is the only index past kString.
  DataType type() const {
    const size_t index = rep_.index();
    if (index > static_cast<size_t>(DataType::kString)) [[unlikely]] {
      CorruptVariant();
    }
    return static_cast<DataType>(index);
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }

  /// Typed accessors; the caller must check type() first. Accessing the
  /// wrong alternative aborts (internal invariant violation).
  bool bool_value() const { return std::get<bool>(rep_); }
  int64_t int_value() const { return std::get<int64_t>(rep_); }
  double double_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const { return std::get<std::string>(rep_); }

  /// In-place overwrites, for a row view refilled once per row: they skip
  /// the variant's generic assignment, and AssignString reuses the held
  /// string's buffer when this already is a STRING.
  void AssignNull() { rep_.emplace<std::monostate>(); }
  void AssignBool(bool v) { AssignAlternative(v); }
  void AssignInt(int64_t v) { AssignAlternative(v); }
  void AssignDouble(double v) { AssignAlternative(v); }
  void AssignString(std::string_view v) {
    if (auto* s = std::get_if<std::string>(&rep_)) {
      s->assign(v);
    } else {
      rep_.emplace<std::string>(v);
    }
  }

  /// Returns the value as a double, promoting INT; aborts on other types.
  double AsDouble() const;

  /// Total order used by sort/merge operators and ordered indexes.
  /// NULL < BOOL < numeric < STRING across incomparable types.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable 64-bit hash (equal values hash equal, including INT/DOUBLE
  /// values that compare equal within +-2^53).
  uint64_t Hash() const;

  /// The hash Hash() gives a value of each type, for column kernels that
  /// hash typed arrays without boxing.
  static uint64_t HashNull() { return Mix64(0x6e756c6cULL); }
  static uint64_t HashBool(bool v) { return Mix64(v ? 2 : 1); }
  static uint64_t HashInt(int64_t v) { return Mix64(static_cast<uint64_t>(v)); }
  static uint64_t HashDouble(double v);
  static uint64_t HashString(std::string_view v);

  /// Renders the value for result printing ("NULL", "42", "'abc'").
  std::string ToString() const;

  /// Approximate in-memory footprint in bytes, used by the per-PE memory
  /// tracker and the optimizer's size estimator.
  size_t ByteSize() const;

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string>;
  template <DataType T>
  using Alt = std::variant_alternative_t<static_cast<size_t>(T), Rep>;
  static_assert(std::is_same_v<Alt<DataType::kNull>, std::monostate>);
  static_assert(std::is_same_v<Alt<DataType::kBool>, bool>);
  static_assert(std::is_same_v<Alt<DataType::kInt64>, int64_t>);
  static_assert(std::is_same_v<Alt<DataType::kDouble>, double>);
  static_assert(std::is_same_v<Alt<DataType::kString>, std::string>);

  explicit Value(Rep rep) : rep_(std::move(rep)) {}
  [[noreturn]] static void CorruptVariant();

  // 64-bit mix of SplitMix64; good avalanche for hash table use.
  static uint64_t Mix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  template <typename T>
  void AssignAlternative(T v) {
    if (auto* held = std::get_if<T>(&rep_)) {
      *held = v;
    } else {
      rep_.emplace<T>(v);
    }
  }

  Rep rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

/// True if a value of type `from` may be used where `to` is expected
/// (identity, NULL-to-anything, INT-to-DOUBLE widening).
bool IsCoercible(DataType from, DataType to);

/// Coerces `value` to `type` (INT->DOUBLE widening, NULL passthrough).
/// Fails with kInvalidArgument for lossy or unrelated conversions.
StatusOr<Value> CoerceValue(const Value& value, DataType type);

}  // namespace prisma

#endif  // PRISMA_COMMON_VALUE_H_
