#include "common/column_batch.h"

namespace prisma {

Value ColumnView::ValueAt(size_t row) const {
  if (boxed) return values[row];
  if (nulls[row] != 0) return Value::Null();
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value::Bool(bools[row] != 0);
    case DataType::kInt64:
      return Value::Int(ints[row]);
    case DataType::kDouble:
      return Value::Double(doubles[row]);
    case DataType::kString:
      return Value::String(strings[row]);
  }
  return Value::Null();
}

void ColumnView::LoadBoxedOrString(size_t row, Value* dst) const {
  if (boxed) {
    *dst = values[row];
  } else if (nulls[row] != 0) {
    dst->AssignNull();
  } else {
    dst->AssignString(strings[row]);
  }
}

bool ColumnView::EqualsAt(size_t row, const Value& v) const {
  if (boxed) return values[row].Compare(v) == 0;
  if (nulls[row] != 0 || type == DataType::kNull) return v.is_null();
  // Value::Compare's numeric rule: equal unless one is less (so NaN
  // equals every number, as there).
  auto same_number = [](double a, double b) { return !(a < b) && !(b < a); };
  switch (v.type()) {
    case DataType::kNull:
      return false;
    case DataType::kBool:
      return type == DataType::kBool && (bools[row] != 0) == v.bool_value();
    case DataType::kInt64:
      if (type == DataType::kInt64) return ints[row] == v.int_value();
      return type == DataType::kDouble &&
             same_number(doubles[row], v.AsDouble());
    case DataType::kDouble:
      if (type == DataType::kInt64) {
        return same_number(static_cast<double>(ints[row]), v.double_value());
      }
      return type == DataType::kDouble &&
             same_number(doubles[row], v.double_value());
    case DataType::kString:
      return type == DataType::kString && strings[row] == v.string_value();
  }
  return false;
}

Tuple RowOfViews(std::span<const ColumnView> columns, size_t row) {
  std::vector<Value> values;
  values.reserve(columns.size());
  for (const ColumnView& col : columns) values.push_back(col.ValueAt(row));
  return Tuple(std::move(values));
}

ColumnBatch ColumnBatch::FromTuples(const Tuple* tuples, size_t count) {
  if (count == 0) return ColumnBatch();
  ColumnBatch batch(tuples[0].size());
  for (size_t i = 0; i < count; ++i) batch.AppendTuple(tuples[i]);
  return batch;
}

ColumnBatch ColumnBatch::FromTuples(const std::vector<Tuple>& tuples) {
  return FromTuples(tuples.data(), tuples.size());
}

std::vector<ColumnBatch> ColumnBatch::Chunk(const std::vector<Tuple>& tuples,
                                            size_t batch_rows) {
  std::vector<ColumnBatch> batches;
  if (batch_rows == 0) batch_rows = kDefaultBatchRows;
  for (size_t at = 0; at < tuples.size(); at += batch_rows) {
    const size_t n = std::min(batch_rows, tuples.size() - at);
    batches.push_back(FromTuples(tuples.data() + at, n));
  }
  return batches;
}

ColumnBatch ColumnBatch::FromColumns(std::vector<Column> columns,
                                     size_t num_rows) {
  ColumnBatch batch;
  batch.columns_ = std::move(columns);
  batch.num_rows_ = num_rows;
  return batch;
}

void ColumnBatch::BoxColumn(Column& col) {
  std::vector<Value> values;
  values.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) values.push_back(col.ValueAt(r));
  col = Column();
  col.boxed = true;
  col.values = std::move(values);
}

void ColumnBatch::AppendValue(Column& col, const Value& v) {
  if (!col.boxed && !v.is_null() && col.type != DataType::kNull &&
      col.type != v.type()) {
    BoxColumn(col);
  }
  if (col.boxed) {
    col.values.push_back(v);
    return;
  }
  if (!v.is_null() && col.type == DataType::kNull) {
    // First non-null value fixes the column type; backfill placeholders
    // for the NULL rows appended so far.
    col.type = v.type();
    switch (col.type) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        col.bools.assign(num_rows_, 0);
        break;
      case DataType::kInt64:
        col.ints.assign(num_rows_, 0);
        break;
      case DataType::kDouble:
        col.doubles.assign(num_rows_, 0.0);
        break;
      case DataType::kString:
        col.strings.assign(num_rows_, std::string());
        break;
    }
  }
  col.nulls.push_back(v.is_null() ? 1 : 0);
  switch (col.type) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      col.bools.push_back(v.is_null() ? 0 : (v.bool_value() ? 1 : 0));
      break;
    case DataType::kInt64:
      col.ints.push_back(v.is_null() ? 0 : v.int_value());
      break;
    case DataType::kDouble:
      col.doubles.push_back(v.is_null() ? 0.0 : v.double_value());
      break;
    case DataType::kString:
      col.strings.push_back(v.is_null() ? std::string() : v.string_value());
      break;
  }
}

void ColumnBatch::AppendTuple(const Tuple& tuple) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    AppendValue(columns_[c], tuple.at(c));
  }
  ++num_rows_;
}

ColumnBatch ColumnBatch::TakeRows(const std::vector<uint32_t>& rows) const {
  ColumnBatch out(columns_.size());
  out.num_rows_ = rows.size();
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& in = columns_[c];
    Column& dst = out.columns_[c];
    if (in.boxed) {
      dst.boxed = true;
      dst.values.reserve(rows.size());
      for (const uint32_t r : rows) dst.values.push_back(in.values[r]);
      continue;
    }
    dst.type = in.type;
    dst.nulls.reserve(rows.size());
    for (const uint32_t r : rows) dst.nulls.push_back(in.nulls[r]);
    switch (in.type) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        dst.bools.reserve(rows.size());
        for (const uint32_t r : rows) dst.bools.push_back(in.bools[r]);
        break;
      case DataType::kInt64:
        dst.ints.reserve(rows.size());
        for (const uint32_t r : rows) dst.ints.push_back(in.ints[r]);
        break;
      case DataType::kDouble:
        dst.doubles.reserve(rows.size());
        for (const uint32_t r : rows) dst.doubles.push_back(in.doubles[r]);
        break;
      case DataType::kString:
        dst.strings.reserve(rows.size());
        for (const uint32_t r : rows) dst.strings.push_back(in.strings[r]);
        break;
    }
  }
  return out;
}

Tuple ColumnBatch::RowAt(size_t row) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const Column& col : columns_) values.push_back(col.ValueAt(row));
  return Tuple(std::move(values));
}

std::vector<Tuple> ColumnBatch::ToTuples() const {
  std::vector<Tuple> tuples;
  tuples.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) tuples.push_back(RowAt(r));
  return tuples;
}

std::vector<ColumnView> ColumnBatch::Views() const {
  std::vector<ColumnView> views;
  views.reserve(columns_.size());
  for (const Column& col : columns_) views.push_back(col.View());
  return views;
}

size_t ColumnBatch::ByteSize() const {
  size_t bytes = 0;
  for (size_t r = 0; r < num_rows_; ++r) bytes += RowAt(r).ByteSize();
  return bytes;
}

}  // namespace prisma
