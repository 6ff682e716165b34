#ifndef PRISMA_COMMON_TUPLE_H_
#define PRISMA_COMMON_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace prisma {

/// A row of scalar values. Tuples do not carry their schema; the producing
/// operator's Schema describes their shape.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value value) { values_.push_back(std::move(value)); }

  /// Concatenation of two tuples (join output).
  static Tuple Concat(const Tuple& left, const Tuple& right);

  /// Total order: lexicographic by Value::Compare.
  int Compare(const Tuple& other) const;
  bool operator==(const Tuple& other) const { return Compare(other) == 0; }
  bool operator<(const Tuple& other) const { return Compare(other) < 0; }

  /// Hash over all fields (combinable with per-column Value::Hash).
  uint64_t Hash() const;

  /// Approximate in-memory footprint in bytes.
  size_t ByteSize() const;

  /// Renders as "(1, 'abc', NULL)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

/// Hash of the projection of `tuple` onto `columns`, used for hash
/// fragmentation and hash joins.
uint64_t HashTupleColumns(const Tuple& tuple, const std::vector<size_t>& columns);

/// The hash combiner behind Tuple::Hash and HashTupleColumns, exposed so
/// columnar kernels can fold per-column Value hashes incrementally and
/// land on the same result as the tuple forms.
uint64_t CombineTupleHash(uint64_t seed, uint64_t h);

/// Seed of HashTupleColumns; start here when combining incrementally.
inline constexpr uint64_t kHashTupleColumnsSeed = 0x4f464dULL;  // "OFM"

/// Seed of Tuple::Hash, likewise.
inline constexpr uint64_t kTupleHashSeed = 0x505249534d41ULL;  // "PRISMA"

}  // namespace prisma

#endif  // PRISMA_COMMON_TUPLE_H_
