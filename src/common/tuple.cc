#include "common/tuple.h"

namespace prisma {

uint64_t CombineTupleHash(uint64_t seed, uint64_t h) {
  // boost::hash_combine layout with 64-bit golden ratio.
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

namespace {

uint64_t CombineHashes(uint64_t seed, uint64_t h) {
  return CombineTupleHash(seed, h);
}

}  // namespace

Tuple Tuple::Concat(const Tuple& left, const Tuple& right) {
  std::vector<Value> values = left.values_;
  values.insert(values.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(values));
}

int Tuple::Compare(const Tuple& other) const {
  const size_t n = std::min(values_.size(), other.values_.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = values_[i].Compare(other.values_[i]);
    if (c != 0) return c;
  }
  if (values_.size() == other.values_.size()) return 0;
  return values_.size() < other.values_.size() ? -1 : 1;
}

uint64_t Tuple::Hash() const {
  uint64_t h = kTupleHashSeed;
  for (const Value& v : values_) h = CombineHashes(h, v.Hash());
  return h;
}

size_t Tuple::ByteSize() const {
  size_t n = 16;
  for (const Value& v : values_) n += v.ByteSize();
  return n;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

uint64_t HashTupleColumns(const Tuple& tuple, const std::vector<size_t>& columns) {
  uint64_t h = kHashTupleColumnsSeed;
  for (size_t c : columns) h = CombineHashes(h, tuple.at(c).Hash());
  return h;
}

}  // namespace prisma
