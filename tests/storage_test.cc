#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "storage/btree_index.h"
#include "storage/hash_index.h"
#include "storage/memory_tracker.h"
#include "storage/relation.h"
#include "storage/stable_store.h"

namespace prisma::storage {
namespace {

Schema EmpSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"name", DataType::kString},
                 {"salary", DataType::kDouble}});
}

Tuple Emp(int64_t id, const std::string& name, double salary) {
  return Tuple({Value::Int(id), Value::String(name), Value::Double(salary)});
}

// ---------------------------------------------------------- MemoryTracker

TEST(MemoryTrackerTest, ReserveAndRelease) {
  MemoryTracker t(1000);
  EXPECT_TRUE(t.Reserve(600).ok());
  EXPECT_EQ(t.used(), 600u);
  EXPECT_EQ(t.available(), 400u);
  EXPECT_TRUE(t.Reserve(400).ok());
  Status s = t.Reserve(1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  t.Release(500);
  EXPECT_TRUE(t.Reserve(100).ok());
  EXPECT_EQ(t.high_water(), 1000u);
}

TEST(MemoryTrackerTest, FailedReserveHasNoEffect) {
  MemoryTracker t(100);
  EXPECT_FALSE(t.Reserve(101).ok());
  EXPECT_EQ(t.used(), 0u);
}

TEST(MemoryTrackerTest, DefaultCapacityIsSixteenMegabytes) {
  MemoryTracker t;
  EXPECT_EQ(t.capacity(), 16u * 1024 * 1024);  // Paper §3.2.
}

// ---------------------------------------------------------------- Relation

TEST(RelationTest, InsertGetScan) {
  Relation r("emp", EmpSchema());
  auto id0 = r.Insert(Emp(1, "ann", 100.0));
  auto id1 = r.Insert(Emp(2, "bob", 200.0));
  ASSERT_TRUE(id0.ok());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(r.num_tuples(), 2u);
  EXPECT_EQ(r.Get(*id0)->at(1), Value::String("ann"));

  std::vector<Tuple> seen;
  r.Scan([&](RowId, const Tuple& t) {
    seen.push_back(t);
    return true;
  });
  EXPECT_EQ(seen.size(), 2u);
}

TEST(RelationTest, InsertValidatesArityAndTypes) {
  Relation r("emp", EmpSchema());
  EXPECT_FALSE(r.Insert(Tuple({Value::Int(1)})).ok());
  EXPECT_FALSE(
      r.Insert(Tuple({Value::String("x"), Value::String("y"), Value::Int(1)}))
          .ok());
  // INT widens to DOUBLE in the salary column.
  auto id = r.Insert(Tuple({Value::Int(1), Value::String("a"), Value::Int(5)}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(r.Get(*id)->at(2).type(), DataType::kDouble);
  // NULLs are accepted in any column.
  EXPECT_TRUE(
      r.Insert(Tuple({Value::Null(), Value::Null(), Value::Null()})).ok());
}

TEST(RelationTest, DeleteAndUpdate) {
  Relation r("emp", EmpSchema());
  RowId a = r.Insert(Emp(1, "ann", 100.0)).value();
  RowId b = r.Insert(Emp(2, "bob", 200.0)).value();
  EXPECT_TRUE(r.Delete(a).ok());
  EXPECT_EQ(r.num_tuples(), 1u);
  EXPECT_FALSE(r.IsLive(a));
  EXPECT_EQ(r.Delete(a).code(), StatusCode::kNotFound);
  EXPECT_FALSE(r.Get(a).ok());

  EXPECT_TRUE(r.Update(b, Emp(2, "bob", 250.0)).ok());
  EXPECT_DOUBLE_EQ(r.Get(b)->at(2).double_value(), 250.0);
  EXPECT_EQ(r.Update(a, Emp(9, "x", 1.0)).code(), StatusCode::kNotFound);
}

TEST(RelationTest, MemoryAccounting) {
  MemoryTracker mem(10'000);
  {
    Relation r("emp", EmpSchema(), &mem);
    RowId a = r.Insert(Emp(1, "ann", 100.0)).value();
    EXPECT_GT(mem.used(), 0u);
    const size_t used_after_one = mem.used();
    r.Insert(Emp(2, "bob", 200.0)).value();
    EXPECT_GT(mem.used(), used_after_one);
    EXPECT_TRUE(r.Delete(a).ok());
    EXPECT_LT(mem.used(), used_after_one + used_after_one);
  }
  // Destructor releases everything.
  EXPECT_EQ(mem.used(), 0u);
}

TEST(RelationTest, InsertFailsWhenPeMemoryExhausted) {
  MemoryTracker mem(200);
  Relation r("emp", EmpSchema(), &mem);
  Status last;
  int inserted = 0;
  for (int i = 0; i < 100; ++i) {
    auto s = r.Insert(Emp(i, "somebody", 1.0));
    if (!s.ok()) {
      last = s.status();
      break;
    }
    ++inserted;
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(inserted, 0);
  EXPECT_EQ(r.num_tuples(), static_cast<size_t>(inserted));
}

TEST(RelationTest, CompactReclaimsSlots) {
  Relation r("emp", EmpSchema());
  for (int i = 0; i < 10; ++i) r.Insert(Emp(i, "x", 1.0)).value();
  for (RowId i = 0; i < 10; i += 2) EXPECT_TRUE(r.Delete(i).ok());
  EXPECT_EQ(r.num_tuples(), 5u);
  EXPECT_EQ(r.num_slots(), 10u);
  r.Compact();
  EXPECT_EQ(r.num_slots(), 5u);
  EXPECT_EQ(r.num_tuples(), 5u);
  // Survivors are the odd ids.
  auto all = r.AllTuples();
  for (const Tuple& t : all) EXPECT_EQ(t.at(0).int_value() % 2, 1);
}

TEST(RelationTest, ByteSizeTracksLiveTuplesOnly) {
  MemoryTracker mem(100'000);
  Relation r("emp", EmpSchema(), &mem);
  auto live_bytes = [&r] {
    size_t n = 0;
    r.Scan([&n](RowId, const Tuple& t) {
      n += t.ByteSize();
      return true;
    });
    return n;
  };
  auto expect_tracked = [&](const char* step) {
    EXPECT_EQ(r.byte_size(), live_bytes()) << step;
    EXPECT_EQ(mem.used(), r.byte_size()) << step;
  };
  const RowId a = r.Insert(Emp(1, "ann", 100.0)).value();
  const RowId b = r.Insert(Emp(2, "a much longer name", 200.0)).value();
  r.Insert(Tuple({Value::Int(3), Value::Null(), Value::Int(7)})).value();
  expect_tracked("insert");
  ASSERT_TRUE(r.Delete(b).ok());
  expect_tracked("delete releases at once, before Compact");
  ASSERT_TRUE(r.Update(a, Emp(1, "annabel", 150.0)).ok());
  expect_tracked("update");
  ASSERT_TRUE(r.RestoreRow(b, Emp(2, "bo", 1.0)).ok());
  expect_tracked("restore row");
  ASSERT_TRUE(r.RestoreSlot(std::nullopt).ok());
  ASSERT_TRUE(r.RestoreSlot(Emp(5, "eve", 5.0)).ok());
  expect_tracked("restore slot");
  ASSERT_TRUE(r.Delete(a).ok());
  r.Compact();
  expect_tracked("compact");
  r.Clear();
  expect_tracked("clear");
  EXPECT_EQ(r.byte_size(), 0u);
}

/// Differential test of the columnar Relation against a reference row
/// store kept here: random Insert/Delete/Update/RestoreRow/RestoreSlot/
/// Compact/Clear over INT, DOUBLE (with INT coercion), BOOL, STRING and a
/// wildcard column, NULLs included. Every observable read — Scan,
/// ScanSlots, Get, slot and tuple counts, checkpoint images, ScanSlices
/// and ScanBatches — must match the reference, and the tracked bytes must
/// equal the sum of Tuple::ByteSize over the live rows.
class RelationDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static Schema MixedSchema() {
    return Schema({{"i", DataType::kInt64},
                   {"d", DataType::kDouble},
                   {"b", DataType::kBool},
                   {"s", DataType::kString},
                   {"w", DataType::kNull}});
  }

  Value RandomOf(DataType type) {
    switch (type) {
      case DataType::kNull:
        return Value::Null();
      case DataType::kBool:
        return Value::Bool(rng_.NextBool(0.5));
      case DataType::kInt64:
        return Value::Int(rng_.UniformInt(-5, 5));
      case DataType::kDouble:
        return Value::Double(rng_.UniformInt(-8, 8) * 0.25);
      case DataType::kString:
        return Value::String(std::string(
            rng_.Uniform(4), static_cast<char>('a' + rng_.Uniform(3))));
    }
    return Value::Null();
  }

  /// A valid tuple; the second element is what the relation stores.
  std::pair<Tuple, Tuple> RandomTuple() {
    // Columns drift between mostly NULL and never NULL so batch slices
    // see all-NULL, mixed and NULL-free runs.
    const double null_p = phase_ % 3 == 0 ? 0.9 : (phase_ % 3 == 1 ? 0.0 : 0.2);
    std::vector<Value> in;
    std::vector<Value> stored;
    for (const DataType t : {DataType::kInt64, DataType::kDouble,
                             DataType::kBool, DataType::kString}) {
      Value v = rng_.NextBool(null_p) ? Value::Null() : RandomOf(t);
      Value s = v;
      if (t == DataType::kDouble && !v.is_null() && rng_.NextBool(0.3)) {
        v = Value::Int(rng_.UniformInt(-3, 3));  // INT -> DOUBLE coercion.
        s = Value::Double(static_cast<double>(v.int_value()));
      }
      in.push_back(v);
      stored.push_back(s);
    }
    // The wildcard column keeps every value's own type; some phases keep
    // it single-typed so batches type it rather than box it.
    const DataType wild =
        phase_ % 2 == 0 ? DataType::kInt64
                        : static_cast<DataType>(1 + rng_.Uniform(4));
    Value w = rng_.NextBool(null_p) ? Value::Null() : RandomOf(wild);
    in.push_back(w);
    stored.push_back(w);
    return {Tuple(std::move(in)), Tuple(std::move(stored))};
  }

  /// Exact equality: same type per field (Value's == equates 1 and 1.0).
  static bool Same(const Tuple& a, const Tuple& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a.at(i).type() != b.at(i).type() || a.at(i) != b.at(i)) return false;
    }
    return true;
  }

  static void ExpectSameColumn(const ColumnBatch::Column& got,
                               const ColumnBatch::Column& want,
                               const std::string& where) {
    EXPECT_EQ(got.type, want.type) << where;
    EXPECT_EQ(got.boxed, want.boxed) << where;
    EXPECT_EQ(got.nulls, want.nulls) << where;
    EXPECT_EQ(got.bools, want.bools) << where;
    EXPECT_EQ(got.ints, want.ints) << where;
    EXPECT_EQ(got.doubles, want.doubles) << where;
    EXPECT_EQ(got.strings, want.strings) << where;
    ASSERT_EQ(got.values.size(), want.values.size()) << where;
    for (size_t r = 0; r < got.values.size(); ++r) {
      EXPECT_TRUE(Same(Tuple({got.values[r]}), Tuple({want.values[r]})))
          << where << " row " << r;
    }
  }

  std::vector<Tuple> RefLive() const {
    std::vector<Tuple> out;
    for (const auto& slot : ref_) {
      if (slot.has_value()) out.push_back(*slot);
    }
    return out;
  }

  void ExpectMatchesReference(const Relation& r, const MemoryTracker& mem,
                              const std::string& where) {
    ASSERT_EQ(r.num_slots(), ref_.size()) << where;
    const std::vector<Tuple> live = RefLive();
    ASSERT_EQ(r.num_tuples(), live.size()) << where;
    size_t bytes = 0;
    for (const Tuple& t : live) bytes += t.ByteSize();
    EXPECT_EQ(r.byte_size(), bytes) << where;
    EXPECT_EQ(mem.used(), bytes) << where;

    for (RowId row = 0; row < ref_.size() + 2; ++row) {
      auto got = r.Get(row);
      const bool live_slot = row < ref_.size() && ref_[row].has_value();
      ASSERT_EQ(got.ok(), live_slot) << where << " row " << row;
      EXPECT_EQ(r.IsLive(row), live_slot) << where << " row " << row;
      if (live_slot) {
        EXPECT_TRUE(Same(*got, *ref_[row])) << where;
      }
    }

    std::vector<RowId> scanned_ids;
    std::vector<Tuple> scanned;
    r.Scan([&](RowId row, const Tuple& t) {
      scanned_ids.push_back(row);
      scanned.push_back(t);
      return true;
    });
    ASSERT_EQ(scanned.size(), live.size()) << where;
    size_t k = 0;
    for (RowId row = 0; row < ref_.size(); ++row) {
      if (!ref_[row].has_value()) continue;
      EXPECT_EQ(scanned_ids[k], row) << where;
      EXPECT_TRUE(Same(scanned[k], live[k])) << where << " scan " << k;
      ++k;
    }
    EXPECT_EQ(r.AllTuples().size(), live.size()) << where;

    // Checkpoint images, written exactly as Ofm::Checkpoint writes them.
    BinaryWriter got_image;
    r.ScanSlots([&](RowId, const Tuple* t) {
      got_image.PutU8(t != nullptr ? 1 : 0);
      if (t != nullptr) got_image.PutTuple(*t);
    });
    BinaryWriter want_image;
    for (const auto& slot : ref_) {
      want_image.PutU8(slot.has_value() ? 1 : 0);
      if (slot.has_value()) want_image.PutTuple(*slot);
    }
    EXPECT_EQ(got_image.Take(), want_image.Take()) << where;

    // Column slices: live rows in RowId order, values as stored.
    std::vector<RowId> slice_ids;
    std::vector<Tuple> sliced;
    r.ScanSlices(7, [&](std::span<const RowId> rows,
                        std::span<const ColumnView> cols) {
      EXPECT_LE(rows.size(), 7u);
      EXPECT_EQ(cols.size(), 5u);
      for (size_t i = 0; i < rows.size(); ++i) {
        slice_ids.push_back(rows[i]);
        sliced.push_back(RowOfViews(cols, i));
      }
      return true;
    });
    EXPECT_EQ(slice_ids, scanned_ids) << where;
    ASSERT_EQ(sliced.size(), live.size()) << where;
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_TRUE(Same(sliced[i], live[i])) << where << " slice row " << i;
    }

    for (const size_t n : {size_t{1}, size_t{3}, size_t{16}, size_t{1024}}) {
      const std::vector<ColumnBatch> got_batches = r.ScanBatches(n);
      const std::vector<ColumnBatch> want_batches =
          ColumnBatch::Chunk(r.AllTuples(), n);
      ASSERT_EQ(got_batches.size(), want_batches.size()) << where;
      for (size_t b = 0; b < got_batches.size(); ++b) {
        ASSERT_EQ(got_batches[b].num_rows(), want_batches[b].num_rows());
        ASSERT_EQ(got_batches[b].num_columns(), want_batches[b].num_columns());
        for (size_t c = 0; c < got_batches[b].num_columns(); ++c) {
          ExpectSameColumn(got_batches[b].column(c), want_batches[b].column(c),
                           where + " batch_rows " + std::to_string(n) +
                               " batch " + std::to_string(b) + " col " +
                               std::to_string(c));
        }
      }
    }
  }

  Rng rng_{GetParam()};
  int phase_ = 0;
  std::vector<std::optional<Tuple>> ref_;
};

TEST_P(RelationDiffTest, MatchesReferenceRowStore) {
  MemoryTracker mem(1'000'000);
  Relation r("mixed", MixedSchema(), &mem);
  for (int step = 0; step < 200; ++step) {
    if (step % 25 == 0) ++phase_;
    const std::string where = "step " + std::to_string(step);
    const RowId row = rng_.Uniform(ref_.size() + 2);
    const bool live_slot = row < ref_.size() && ref_[row].has_value();
    const double op = rng_.NextDouble();
    if (op < 0.35) {
      auto [in, stored] = RandomTuple();
      auto id = r.Insert(std::move(in));
      ASSERT_TRUE(id.ok()) << where;
      EXPECT_EQ(*id, ref_.size()) << where;
      ref_.push_back(std::move(stored));
    } else if (op < 0.5) {
      const Status s = r.Delete(row);
      EXPECT_EQ(s.ok(), live_slot) << where;
      if (live_slot) ref_[row].reset();
    } else if (op < 0.65) {
      auto [in, stored] = RandomTuple();
      const Status s = r.Update(row, std::move(in));
      EXPECT_EQ(s.ok(), live_slot) << where;
      if (live_slot) ref_[row] = std::move(stored);
    } else if (op < 0.75) {
      auto [in, stored] = RandomTuple();
      const bool restorable = row < ref_.size() && !live_slot;
      const Status s = r.RestoreRow(row, std::move(in));
      EXPECT_EQ(s.ok(), restorable) << where;
      if (restorable) ref_[row] = std::move(stored);
    } else if (op < 0.85) {
      if (rng_.NextBool(0.5)) {
        ASSERT_TRUE(r.RestoreSlot(std::nullopt).ok()) << where;
        ref_.emplace_back(std::nullopt);
      } else {
        auto [in, stored] = RandomTuple();
        ASSERT_TRUE(r.RestoreSlot(std::move(in)).ok()) << where;
        ref_.push_back(std::move(stored));
      }
    } else if (op < 0.9) {
      // Invalid tuples change nothing.
      EXPECT_FALSE(r.Insert(Tuple({Value::Int(1)})).ok()) << where;
      EXPECT_FALSE(r.Insert(Tuple({Value::String("x"), Value::Null(),
                                   Value::Null(), Value::Null(),
                                   Value::Null()}))
                       .ok())
          << where;
    } else if (op < 0.98) {
      r.Compact();
      std::vector<std::optional<Tuple>> packed;
      for (auto& slot : ref_) {
        if (slot.has_value()) packed.push_back(std::move(slot));
      }
      ref_ = std::move(packed);
    } else {
      r.Clear();
      ref_.clear();
    }
    ExpectMatchesReference(r, mem, where);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationDiffTest,
                         ::testing::Range<uint64_t>(1, 51));

// ---------------------------------------------------------------- HashIndex

TEST(HashIndexTest, ProbeFindsAllDuplicates) {
  Relation r("emp", EmpSchema());
  HashIndex idx("emp_name", {1});
  for (int i = 0; i < 6; ++i) {
    Tuple t = Emp(i, i % 2 == 0 ? "even" : "odd", 1.0);
    RowId row = r.Insert(t).value();
    idx.OnInsert(row, t);
  }
  auto rows = idx.Probe(Tuple({Value::String("even")}));
  EXPECT_EQ(rows.size(), 3u);
  for (RowId row : rows) {
    EXPECT_EQ(r.Get(row)->at(1), Value::String("even"));
  }
  EXPECT_TRUE(idx.Probe(Tuple({Value::String("nobody")})).empty());
}

TEST(HashIndexTest, DeleteRemovesEntry) {
  HashIndex idx("i", {0});
  Tuple t = Emp(7, "x", 1.0);
  idx.OnInsert(3, t);
  idx.OnInsert(4, Emp(7, "y", 2.0));
  idx.OnDelete(3, t);
  auto rows = idx.Probe(Tuple({Value::Int(7)}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 4u);
  EXPECT_EQ(idx.num_entries(), 1u);
}

TEST(HashIndexTest, CompositeKey) {
  HashIndex idx("i", {0, 1});
  idx.OnInsert(1, Emp(1, "a", 1.0));
  idx.OnInsert(2, Emp(1, "b", 1.0));
  EXPECT_EQ(idx.Probe(Tuple({Value::Int(1), Value::String("a")})).size(), 1u);
  EXPECT_EQ(idx.Probe(Tuple({Value::Int(1), Value::String("b")})).size(), 1u);
  EXPECT_TRUE(idx.Probe(Tuple({Value::Int(2), Value::String("a")})).empty());
}

TEST(HashIndexTest, RebuildMatchesRelation) {
  Relation r("emp", EmpSchema());
  HashIndex idx("i", {0});
  for (int i = 0; i < 20; ++i) r.Insert(Emp(i % 5, "n", 1.0)).value();
  idx.Rebuild(r);
  EXPECT_EQ(idx.num_entries(), 20u);
  EXPECT_EQ(idx.Probe(Tuple({Value::Int(3)})).size(), 4u);
}

// ---------------------------------------------------------------- BTree

TEST(BTreeIndexTest, InsertProbeSmall) {
  BTreeIndex idx("i", {0}, 4);
  for (int i = 0; i < 10; ++i) idx.OnInsert(i, Emp(i, "x", 1.0));
  EXPECT_TRUE(idx.Validate().ok());
  for (int i = 0; i < 10; ++i) {
    auto rows = idx.Probe(Tuple({Value::Int(i)}));
    ASSERT_EQ(rows.size(), 1u) << i;
    EXPECT_EQ(rows[0], static_cast<RowId>(i));
  }
  EXPECT_TRUE(idx.Probe(Tuple({Value::Int(99)})).empty());
}

TEST(BTreeIndexTest, SplitsGrowHeight) {
  BTreeIndex idx("i", {0}, 4);
  EXPECT_EQ(idx.height(), 1);
  for (int i = 0; i < 100; ++i) idx.OnInsert(i, Emp(i, "x", 1.0));
  EXPECT_GT(idx.height(), 2);
  EXPECT_TRUE(idx.Validate().ok());
  EXPECT_EQ(idx.num_entries(), 100u);
  EXPECT_EQ(idx.num_keys(), 100u);
}

TEST(BTreeIndexTest, ScanAllInOrder) {
  BTreeIndex idx("i", {0}, 4);
  Rng rng(5);
  std::vector<int64_t> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(rng.UniformInt(0, 10'000));
  for (size_t i = 0; i < keys.size(); ++i) {
    idx.OnInsert(i, Emp(keys[i], "x", 1.0));
  }
  std::vector<int64_t> scanned;
  idx.ScanAll([&](const Tuple& key, RowId) {
    scanned.push_back(key.at(0).int_value());
    return true;
  });
  EXPECT_EQ(scanned.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
}

TEST(BTreeIndexTest, RangeScanBounds) {
  BTreeIndex idx("i", {0}, 6);
  for (int i = 0; i < 50; ++i) idx.OnInsert(i, Emp(i, "x", 1.0));
  auto collect = [&](std::optional<Tuple> lo, bool loi, std::optional<Tuple> hi,
                     bool hii) {
    std::vector<int64_t> out;
    idx.ScanRange(lo, loi, hi, hii, [&](const Tuple& key, RowId) {
      out.push_back(key.at(0).int_value());
      return true;
    });
    return out;
  };
  auto mid = collect(Tuple({Value::Int(10)}), true, Tuple({Value::Int(14)}), true);
  EXPECT_EQ(mid, (std::vector<int64_t>{10, 11, 12, 13, 14}));

  auto open_lo = collect(Tuple({Value::Int(10)}), false, Tuple({Value::Int(13)}), true);
  EXPECT_EQ(open_lo, (std::vector<int64_t>{11, 12, 13}));

  auto open_hi = collect(Tuple({Value::Int(10)}), true, Tuple({Value::Int(13)}), false);
  EXPECT_EQ(open_hi, (std::vector<int64_t>{10, 11, 12}));

  auto unbounded_lo = collect(std::nullopt, true, Tuple({Value::Int(2)}), true);
  EXPECT_EQ(unbounded_lo, (std::vector<int64_t>{0, 1, 2}));

  auto unbounded_hi = collect(Tuple({Value::Int(47)}), true, std::nullopt, true);
  EXPECT_EQ(unbounded_hi, (std::vector<int64_t>{47, 48, 49}));

  auto empty = collect(Tuple({Value::Int(60)}), true, std::nullopt, true);
  EXPECT_TRUE(empty.empty());
}

TEST(BTreeIndexTest, DuplicateKeysShareEntry) {
  BTreeIndex idx("i", {1}, 4);
  for (int i = 0; i < 9; ++i) {
    idx.OnInsert(i, Emp(i, i % 3 == 0 ? "a" : "b", 1.0));
  }
  EXPECT_EQ(idx.num_keys(), 2u);
  EXPECT_EQ(idx.num_entries(), 9u);
  EXPECT_EQ(idx.Probe(Tuple({Value::String("a")})).size(), 3u);
  EXPECT_EQ(idx.Probe(Tuple({Value::String("b")})).size(), 6u);
}

TEST(BTreeIndexTest, DeleteUnlinks) {
  BTreeIndex idx("i", {0}, 4);
  for (int i = 0; i < 30; ++i) idx.OnInsert(i, Emp(i, "x", 1.0));
  for (int i = 0; i < 30; i += 3) idx.OnDelete(i, Emp(i, "x", 1.0));
  EXPECT_TRUE(idx.Validate().ok());
  EXPECT_EQ(idx.num_keys(), 20u);
  EXPECT_TRUE(idx.Probe(Tuple({Value::Int(0)})).empty());
  EXPECT_EQ(idx.Probe(Tuple({Value::Int(1)})).size(), 1u);
  // Deleting a missing entry is a no-op.
  idx.OnDelete(999, Emp(999, "x", 1.0));
  EXPECT_EQ(idx.num_keys(), 20u);
}

/// Property test: B+-tree agrees with std::multimap under random
/// insert/delete/probe/range workloads at several node orders.
class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, MatchesReferenceMultimap) {
  const int order = GetParam();
  BTreeIndex idx("p", {0}, order);
  std::multimap<int64_t, RowId> ref;
  Rng rng(order * 977);
  RowId next_row = 0;
  std::vector<std::pair<int64_t, RowId>> live;

  for (int step = 0; step < 3000; ++step) {
    const double op = rng.NextDouble();
    if (op < 0.6 || live.empty()) {
      const int64_t key = rng.UniformInt(0, 300);
      const RowId row = next_row++;
      idx.OnInsert(row, Emp(key, "x", 1.0));
      ref.emplace(key, row);
      live.push_back({key, row});
    } else {
      const size_t pick = rng.Uniform(live.size());
      auto [key, row] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      idx.OnDelete(row, Emp(key, "x", 1.0));
      for (auto it = ref.lower_bound(key); it != ref.end() && it->first == key;
           ++it) {
        if (it->second == row) {
          ref.erase(it);
          break;
        }
      }
    }
  }
  ASSERT_TRUE(idx.Validate().ok());
  EXPECT_EQ(idx.num_entries(), ref.size());

  // Every key's row set matches.
  for (int64_t key = 0; key <= 300; ++key) {
    auto rows = idx.Probe(Tuple({Value::Int(key)}));
    std::multiset<RowId> got(rows.begin(), rows.end());
    std::multiset<RowId> want;
    for (auto it = ref.lower_bound(key); it != ref.end() && it->first == key;
         ++it) {
      want.insert(it->second);
    }
    EXPECT_EQ(got, want) << "key " << key;
  }

  // Random range scans match.
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = rng.UniformInt(0, 300);
    int64_t hi = rng.UniformInt(lo, 300);
    std::vector<RowId> got;
    idx.ScanRange(Tuple({Value::Int(lo)}), true, Tuple({Value::Int(hi)}), true,
                  [&](const Tuple&, RowId row) {
                    got.push_back(row);
                    return true;
                  });
    size_t want_count = 0;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
         ++it) {
      ++want_count;
    }
    EXPECT_EQ(got.size(), want_count) << "[" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BTreePropertyTest,
                         ::testing::Values(4, 8, 32, 128));

// ---------------------------------------------------------------- Serialize

TEST(SerializeTest, RoundTripValuesAndTuples) {
  Tuple t({Value::Null(), Value::Bool(true), Value::Int(-42),
           Value::Double(2.5), Value::String("hello world")});
  auto back = DeserializeTuple(SerializeTuple(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(SerializeTest, RoundTripSchema) {
  Schema s({{"id", DataType::kInt64}, {"name", DataType::kString}});
  BinaryWriter w;
  w.PutSchema(s);
  BinaryReader r(w.data());
  auto back = r.GetSchema();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncatedInputFails) {
  Tuple t({Value::String("abcdef")});
  std::string bytes = SerializeTuple(t);
  auto bad = DeserializeTuple(std::string_view(bytes).substr(0, bytes.size() - 2));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, CorruptTagFails) {
  BinaryWriter w;
  w.PutU32(1);   // One value follows.
  w.PutU8(99);   // Invalid tag.
  auto bad = DeserializeTuple(w.data());
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Stable

TEST(StableStoreTest, AppendAndRead) {
  StableStore store;
  sim::SimTime cost = store.Append("wal", "record1");
  EXPECT_GT(cost, 0);
  store.Append("wal", "record2");
  const auto& records = store.ReadStream("wal");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "record1");
  EXPECT_EQ(records[1], "record2");
  EXPECT_EQ(store.stream_bytes("wal"), 14u);
  EXPECT_TRUE(store.ReadStream("nothing").empty());
}

TEST(StableStoreTest, TruncateDropsStream) {
  StableStore store;
  store.Append("wal", "x");
  store.TruncateStream("wal");
  EXPECT_TRUE(store.ReadStream("wal").empty());
  EXPECT_EQ(store.stream_bytes("wal"), 0u);
}

TEST(StableStoreTest, SnapshotsOverwrite) {
  StableStore store;
  store.WriteSnapshot("ckpt", "v1");
  store.WriteSnapshot("ckpt", "v2-longer");
  auto snap = store.ReadSnapshot("ckpt");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(*snap, "v2-longer");
  EXPECT_EQ(store.ReadSnapshot("missing").status().code(),
            StatusCode::kNotFound);
}

TEST(StableStoreTest, CostsScaleWithSize) {
  DiskModel model;
  StableStore store(model);
  const sim::SimTime small = store.Append("wal", std::string(100, 'a'));
  const sim::SimTime big = store.Append("wal", std::string(1'000'000, 'a'));
  EXPECT_GT(big, small);
  // Every I/O pays at least the positioning time.
  EXPECT_GE(small, model.access_ns);
  // A 1 MB transfer at 1 MB/s dominates: ~1 s.
  EXPECT_GT(big, sim::kNanosPerSecond / 2);
}

TEST(StableStoreTest, DiskIsOrdersOfMagnitudeSlowerThanMemory) {
  // The quantitative core of experiment E3: a random disk I/O costs ~25 ms
  // while a main-memory tuple access costs sub-microsecond.
  DiskModel model;
  EXPECT_GT(model.IoNs(64), 1'000'000);  // > 1 ms.
}

}  // namespace
}  // namespace prisma::storage
