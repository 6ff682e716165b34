#include "storage/relation.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"

namespace prisma::storage {

namespace {

using Column = ColumnBatch::Column;

/// Writes `v` (already validated against the column type) into `slot`. A
/// NULL in a typed column leaves the zero/empty placeholder that
/// ColumnBatch keeps in null slots, and frees a previous string.
void PutValue(Column& col, size_t slot, Value v) {
  if (col.boxed) {
    col.values[slot] = std::move(v);
    return;
  }
  const bool null = v.is_null();
  col.nulls[slot] = null ? 1 : 0;
  switch (col.type) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      col.bools[slot] = (!null && v.bool_value()) ? 1 : 0;
      break;
    case DataType::kInt64:
      col.ints[slot] = null ? 0 : v.int_value();
      break;
    case DataType::kDouble:
      col.doubles[slot] = null ? 0.0 : v.double_value();
      break;
    case DataType::kString:
      if (null) {
        std::string().swap(col.strings[slot]);
      } else {
        col.strings[slot] = v.string_value();
      }
      break;
  }
}

/// Appends one NULL slot to `col`.
void AppendNull(Column& col) {
  if (col.boxed) {
    col.values.emplace_back();
    return;
  }
  col.nulls.push_back(1);
  switch (col.type) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      col.bools.push_back(0);
      break;
    case DataType::kInt64:
      col.ints.push_back(0);
      break;
    case DataType::kDouble:
      col.doubles.push_back(0.0);
      break;
    case DataType::kString:
      col.strings.emplace_back();
      break;
  }
}

/// out[i] = in[rows[i]], reusing `out`'s storage.
template <typename T>
void GatherInto(const std::vector<T>& in, std::span<const RowId> rows,
                std::vector<T>* out) {
  out->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) (*out)[i] = in[rows[i]];
}

/// `src` restricted to `rows`, keeping its stored typing (scratch for a
/// ScanSlices slice that spans tombstones).
void GatherColumn(const Column& src, std::span<const RowId> rows,
                  Column* dst) {
  dst->type = src.type;
  dst->boxed = src.boxed;
  if (src.boxed) {
    GatherInto(src.values, rows, &dst->values);
    return;
  }
  GatherInto(src.nulls, rows, &dst->nulls);
  switch (src.type) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      GatherInto(src.bools, rows, &dst->bools);
      break;
    case DataType::kInt64:
      GatherInto(src.ints, rows, &dst->ints);
      break;
    case DataType::kDouble:
      GatherInto(src.doubles, rows, &dst->doubles);
      break;
    case DataType::kString:
      GatherInto(src.strings, rows, &dst->strings);
      break;
  }
}

/// `src` restricted to `rows`, typed exactly as ColumnBatch::FromTuples
/// types the same values: a column whose non-null values share one type is
/// typed (kNull when there are none), one mixing types is boxed.
Column BatchColumn(const Column& src, std::span<const RowId> rows) {
  Column out;
  if (!src.boxed) {
    const bool any = std::any_of(rows.begin(), rows.end(), [&](RowId r) {
      return src.nulls[r] == 0;
    });
    if (!any) {
      out.nulls.assign(rows.size(), 1);
      return out;
    }
    GatherColumn(src, rows, &out);
    return out;
  }
  DataType type = DataType::kNull;
  for (const RowId r : rows) {
    const Value& v = src.values[r];
    if (v.is_null()) continue;
    if (type == DataType::kNull) {
      type = v.type();
    } else if (v.type() != type) {
      out.boxed = true;
      GatherInto(src.values, rows, &out.values);
      return out;
    }
  }
  out.type = type;
  out.nulls.reserve(rows.size());
  for (const RowId r : rows) {
    const Value& v = src.values[r];
    out.nulls.push_back(v.is_null() ? 1 : 0);
    switch (type) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        out.bools.push_back(v.is_null() ? 0 : (v.bool_value() ? 1 : 0));
        break;
      case DataType::kInt64:
        out.ints.push_back(v.is_null() ? 0 : v.int_value());
        break;
      case DataType::kDouble:
        out.doubles.push_back(v.is_null() ? 0.0 : v.double_value());
        break;
      case DataType::kString:
        out.strings.push_back(v.is_null() ? std::string() : v.string_value());
        break;
    }
  }
  return out;
}

/// Calls `fn(row_ids)` for successive runs of up to `max_rows` live slots
/// in RowId order; stops early when `fn` returns false.
template <typename Fn>
void ForEachLiveRun(const std::vector<uint8_t>& live, size_t max_rows,
                    Fn&& fn) {
  std::vector<RowId> rows;
  rows.reserve(std::min(max_rows, live.size()));
  for (RowId r = 0; r < live.size(); ++r) {
    if (live[r] == 0) continue;
    rows.push_back(r);
    if (rows.size() == max_rows) {
      if (!fn(std::span<const RowId>(rows))) return;
      rows.clear();
    }
  }
  if (!rows.empty()) fn(std::span<const RowId>(rows));
}

/// Refills the row view `view` with the tuple in `slot` of `cols`.
void LoadRow(std::span<const ColumnView> cols, RowId slot, Tuple* view) {
  for (size_t c = 0; c < cols.size(); ++c) cols[c].LoadInto(slot, &view->at(c));
}

/// Drops the entries of `v` at tombstoned slots, keeping order.
template <typename T>
void KeepLive(std::vector<T>& v, const std::vector<uint8_t>& live) {
  if (v.empty()) return;
  size_t out = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (live[i] == 0) continue;
    if (out != i) v[out] = std::move(v[i]);
    ++out;
  }
  v.resize(out);
}

}  // namespace

Relation::Relation(std::string name, Schema schema, MemoryTracker* memory)
    : name_(std::move(name)), schema_(std::move(schema)), memory_(memory) {
  columns_.resize(schema_.num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    // A kNull column type is a wildcard (untyped Datalog relations): its
    // slots may hold any type, so they stay boxed.
    const DataType type = schema_.column(c).type;
    if (type == DataType::kNull) {
      columns_[c].boxed = true;
    } else {
      columns_[c].type = type;
    }
  }
}

Relation::~Relation() {
  if (memory_ != nullptr) memory_->Release(byte_size_);
}

Status Relation::Validate(Tuple& tuple) const {
  if (tuple.size() != schema_.num_columns()) {
    return InvalidArgumentError(StrFormat(
        "relation %s expects %zu columns, got %zu", name_.c_str(),
        schema_.num_columns(), tuple.size()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    const DataType want = schema_.column(i).type;
    if (want == DataType::kNull) continue;
    if (tuple.at(i).type() == want || tuple.at(i).is_null()) continue;
    ASSIGN_OR_RETURN(Value coerced, CoerceValue(tuple.at(i), want));
    tuple.at(i) = std::move(coerced);
  }
  return Status::OK();
}

Status Relation::TrackReserve(size_t bytes) {
  if (memory_ != nullptr) RETURN_IF_ERROR(memory_->Reserve(bytes));
  byte_size_ += bytes;
  return Status::OK();
}

void Relation::TrackRelease(size_t bytes) {
  if (memory_ != nullptr) memory_->Release(bytes);
  byte_size_ -= bytes;
}

void Relation::AppendSlot() {
  for (Column& col : columns_) AppendNull(col);
  live_.push_back(0);
  slot_bytes_.push_back(0);
}

void Relation::Store(RowId row, Tuple tuple, size_t bytes) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    PutValue(columns_[c], row, std::move(tuple.at(c)));
  }
  if (live_[row] == 0) ++live_count_;
  live_[row] = 1;
  slot_bytes_[row] = bytes;
}

std::vector<ColumnView> Relation::SlotViews() const {
  std::vector<ColumnView> views;
  views.reserve(columns_.size());
  for (const Column& col : columns_) views.push_back(col.View());
  return views;
}

Tuple Relation::RowAt(RowId row) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const Column& col : columns_) values.push_back(col.ValueAt(row));
  return Tuple(std::move(values));
}

StatusOr<RowId> Relation::Insert(Tuple tuple) {
  RETURN_IF_ERROR(Validate(tuple));
  const size_t bytes = tuple.ByteSize();
  RETURN_IF_ERROR(TrackReserve(bytes));
  const RowId row = live_.size();
  AppendSlot();
  Store(row, std::move(tuple), bytes);
  return row;
}

Status Relation::Delete(RowId row) {
  if (!IsLive(row)) {
    return NotFoundError(StrFormat("row %llu not found in %s",
                                   static_cast<unsigned long long>(row),
                                   name_.c_str()));
  }
  TrackRelease(slot_bytes_[row]);
  for (Column& col : columns_) PutValue(col, row, Value::Null());
  live_[row] = 0;
  slot_bytes_[row] = 0;
  --live_count_;
  return Status::OK();
}

Status Relation::Update(RowId row, Tuple tuple) {
  if (!IsLive(row)) {
    return NotFoundError(StrFormat("row %llu not found in %s",
                                   static_cast<unsigned long long>(row),
                                   name_.c_str()));
  }
  RETURN_IF_ERROR(Validate(tuple));
  const size_t bytes = tuple.ByteSize();
  RETURN_IF_ERROR(TrackReserve(bytes));
  TrackRelease(slot_bytes_[row]);
  Store(row, std::move(tuple), bytes);
  return Status::OK();
}

Status Relation::RestoreRow(RowId row, Tuple tuple) {
  if (row >= live_.size() || live_[row] != 0) {
    return FailedPreconditionError(
        StrFormat("slot %llu of %s is not restorable",
                  static_cast<unsigned long long>(row), name_.c_str()));
  }
  RETURN_IF_ERROR(Validate(tuple));
  const size_t bytes = tuple.ByteSize();
  RETURN_IF_ERROR(TrackReserve(bytes));
  Store(row, std::move(tuple), bytes);
  return Status::OK();
}

Status Relation::RestoreSlot(std::optional<Tuple> slot) {
  if (!slot.has_value()) {
    AppendSlot();
    return Status::OK();
  }
  RETURN_IF_ERROR(Validate(*slot));
  const size_t bytes = slot->ByteSize();
  RETURN_IF_ERROR(TrackReserve(bytes));
  const RowId row = live_.size();
  AppendSlot();
  Store(row, std::move(*slot), bytes);
  return Status::OK();
}

StatusOr<Tuple> Relation::Get(RowId row) const {
  if (!IsLive(row)) {
    return NotFoundError(StrFormat("row %llu not found in %s",
                                   static_cast<unsigned long long>(row),
                                   name_.c_str()));
  }
  return RowAt(row);
}

void Relation::Scan(const std::function<bool(RowId, const Tuple&)>& fn) const {
  const std::vector<ColumnView> cols = SlotViews();
  Tuple view(std::vector<Value>(cols.size()));
  for (RowId r = 0; r < live_.size(); ++r) {
    if (live_[r] == 0) continue;
    LoadRow(cols, r, &view);
    if (!fn(r, view)) return;
  }
}

void Relation::ScanSlots(
    const std::function<void(RowId, const Tuple*)>& fn) const {
  const std::vector<ColumnView> cols = SlotViews();
  Tuple view(std::vector<Value>(cols.size()));
  for (RowId r = 0; r < live_.size(); ++r) {
    if (live_[r] == 0) {
      fn(r, nullptr);
      continue;
    }
    LoadRow(cols, r, &view);
    fn(r, &view);
  }
}

void Relation::ScanSlices(
    size_t max_rows,
    const std::function<bool(std::span<const RowId>,
                             std::span<const ColumnView>)>& fn) const {
  if (max_rows == 0) max_rows = ColumnBatch::kDefaultBatchRows;
  std::vector<ColumnView> views(columns_.size());
  std::vector<Column> gathered;
  ForEachLiveRun(live_, max_rows, [&](std::span<const RowId> rows) {
    if (rows.back() - rows.front() + 1 == rows.size()) {
      for (size_t c = 0; c < columns_.size(); ++c) {
        views[c] = columns_[c].View(rows.front());
      }
    } else {
      gathered.resize(columns_.size());
      for (size_t c = 0; c < columns_.size(); ++c) {
        GatherColumn(columns_[c], rows, &gathered[c]);
        views[c] = gathered[c].View();
      }
    }
    return fn(rows, views);
  });
}

std::vector<Tuple> Relation::AllTuples() const {
  std::vector<Tuple> out;
  out.reserve(live_count_);
  for (RowId r = 0; r < live_.size(); ++r) {
    if (live_[r] != 0) out.push_back(RowAt(r));
  }
  return out;
}

std::vector<ColumnBatch> Relation::ScanBatches(size_t batch_rows) const {
  if (batch_rows == 0) batch_rows = ColumnBatch::kDefaultBatchRows;
  std::vector<ColumnBatch> batches;
  ForEachLiveRun(live_, batch_rows, [&](std::span<const RowId> rows) {
    std::vector<Column> cols;
    cols.reserve(columns_.size());
    for (const Column& col : columns_) cols.push_back(BatchColumn(col, rows));
    batches.push_back(ColumnBatch::FromColumns(std::move(cols), rows.size()));
    return true;
  });
  return batches;
}

void Relation::Clear() {
  TrackRelease(byte_size_);
  for (Column& col : columns_) {
    Column empty;
    empty.type = col.type;
    empty.boxed = col.boxed;
    col = std::move(empty);
  }
  live_.clear();
  slot_bytes_.clear();
  live_count_ = 0;
}

void Relation::Compact() {
  for (Column& col : columns_) {
    KeepLive(col.nulls, live_);
    KeepLive(col.bools, live_);
    KeepLive(col.ints, live_);
    KeepLive(col.doubles, live_);
    KeepLive(col.strings, live_);
    KeepLive(col.values, live_);
  }
  KeepLive(slot_bytes_, live_);
  live_.assign(live_count_, 1);
}

}  // namespace prisma::storage
