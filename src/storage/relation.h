#ifndef PRISMA_STORAGE_RELATION_H_
#define PRISMA_STORAGE_RELATION_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/column_batch.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"
#include "storage/memory_tracker.h"

namespace prisma::storage {

/// Stable identifier of a tuple within one Relation; survives unrelated
/// deletes (slots are tombstoned, not reused until Compact).
using RowId = uint64_t;

/// An in-memory relation (or relation fragment), stored column-wise.
///
/// This is the primary storage structure of a One-Fragment Manager: tuples
/// live in main memory only (§2.1); durability is layered on top by the
/// recovery component. Inserts validate tuple arity and column types
/// against the schema (with NULL and INT->DOUBLE coercion).
///
/// Layout (DESIGN.md §12.1): one slot-aligned ColumnBatch::Column per
/// schema column — a typed array plus null flags, or one boxed Value per
/// slot for a wildcard (kNull-typed) column — a live/tombstone flag per
/// slot, and per slot the modelled Tuple::ByteSize of its live tuple. The
/// slot index is the RowId. Row-at-a-time readers (Scan, ScanSlots) get a
/// reused row view that is valid only during their callback; batch readers
/// (ScanSlices, ScanBatches) get column windows over the live rows.
class Relation {
 public:
  /// `memory` may be null (untracked, for tests and transient results).
  Relation(std::string name, Schema schema, MemoryTracker* memory = nullptr);
  ~Relation();

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Validates and stores a tuple; returns its RowId.
  StatusOr<RowId> Insert(Tuple tuple);

  /// Removes a live tuple; kNotFound for unknown or already deleted rows.
  Status Delete(RowId row);

  /// Replaces a live tuple, revalidating against the schema.
  Status Update(RowId row, Tuple tuple);

  /// Re-occupies the tombstoned slot `row` with `tuple` (transaction undo
  /// of a delete, WAL replay). Fails if the slot is live or out of range.
  Status RestoreRow(RowId row, Tuple tuple);

  /// Appends one slot verbatim during recovery: a live tuple or a
  /// tombstone (std::nullopt), preserving the checkpointed RowId space.
  Status RestoreSlot(std::optional<Tuple> slot);

  /// Returns the tuple at `row` if live.
  StatusOr<Tuple> Get(RowId row) const;
  bool IsLive(RowId row) const { return row < live_.size() && live_[row] != 0; }

  /// Invokes `fn(row_id, tuple)` for every live tuple in RowId order;
  /// stops early if `fn` returns false. `tuple` is a row view reused for
  /// every row: valid only during the call (copy it to keep it).
  void Scan(const std::function<bool(RowId, const Tuple&)>& fn) const;

  /// Slot-preserving iteration: invokes `fn(row_id, tuple_or_null)` for
  /// every slot in RowId order, tombstones included (tuple == nullptr).
  /// The snapshot hook of checkpointing and replica resync — consumers
  /// that must reproduce the exact RowId space iterate slots, not tuples.
  /// The tuple is a reused row view, as in Scan.
  void ScanSlots(const std::function<void(RowId, const Tuple*)>& fn) const;

  /// Column-wise iteration over the live rows in RowId order, in slices
  /// of at most `max_rows` rows: `fn(row_ids, columns)` gets one window
  /// per schema column, row-aligned with `row_ids`. A slice without
  /// tombstones views the stored columns in place; one spanning
  /// tombstones views a gathered copy of its live rows. Windows keep the
  /// stored column types (a wildcard column is boxed) and are valid only
  /// during the call. Stops early if `fn` returns false.
  void ScanSlices(size_t max_rows,
                  const std::function<bool(std::span<const RowId>,
                                           std::span<const ColumnView>)>& fn)
      const;

  /// All live tuples in RowId order (convenience for small results).
  std::vector<Tuple> AllTuples() const;

  /// All live tuples in RowId order, chunked into ColumnBatches of at most
  /// `batch_rows` rows (the vectorized scan entry point). Equal, column by
  /// column, to ColumnBatch::Chunk(AllTuples(), batch_rows): each batch
  /// re-derives its column types from the values it holds.
  std::vector<ColumnBatch> ScanBatches(size_t batch_rows) const;

  size_t num_tuples() const { return live_count_; }
  /// Modelled bytes of the live tuples: the sum of their Tuple::ByteSize,
  /// which is also what the MemoryTracker holds for this relation. A
  /// delete releases its tuple's bytes at once (before any Compact).
  size_t byte_size() const { return byte_size_; }
  /// Total slots including tombstones (the RowId space).
  size_t num_slots() const { return live_.size(); }

  /// Drops all tuples.
  void Clear();

  /// Reclaims tombstoned slots. Invalidates all previously returned
  /// RowIds; callers (index maintenance) must rebuild afterwards.
  void Compact();

 private:
  Status Validate(Tuple& tuple) const;
  Status TrackReserve(size_t bytes);
  void TrackRelease(size_t bytes);
  /// Stores a validated tuple into slot `row` and marks it live.
  void Store(RowId row, Tuple tuple, size_t bytes);
  /// Appends one tombstoned slot.
  void AppendSlot();
  /// One window per stored column, starting at slot 0.
  std::vector<ColumnView> SlotViews() const;
  Tuple RowAt(RowId row) const;

  std::string name_;
  Schema schema_;
  MemoryTracker* memory_;
  std::vector<ColumnBatch::Column> columns_;  // Slot-aligned.
  std::vector<uint8_t> live_;                 // Per slot; 0 = tombstone.
  std::vector<size_t> slot_bytes_;            // Per slot; 0 = tombstone.
  size_t live_count_ = 0;
  size_t byte_size_ = 0;
};

}  // namespace prisma::storage

#endif  // PRISMA_STORAGE_RELATION_H_
