#include "oracle.h"

#include <cstdlib>

#include "common/str_util.h"

namespace prisma::perfbench {

namespace {

/// The literal after the last "= " of a generated point statement.
int PointId(const std::string& sql) {
  const size_t eq = sql.rfind("= ");
  return eq == std::string::npos ? -1 : std::atoi(sql.c_str() + eq + 2);
}

bool IntAt(const Tuple& t, size_t i, int64_t* out) {
  if (i >= t.size() || t.at(i).type() != DataType::kInt64) return false;
  *out = t.at(i).int_value();
  return true;
}

}  // namespace

Oracle::Oracle(int rows, const std::vector<serve::ArrivalEvent>& schedule)
    : rows_(rows),
      schedule_(&schedule),
      scheduled_updates_(static_cast<size_t>(rows), 0),
      acked_(static_cast<size_t>(rows), 0) {
  for (int id = 0; id < rows; ++id) {
    group_count_[id % 8] += 1;
    group_sum_[id % 8] += id % 100;
  }
  ids_.reserve(schedule.size());
  for (const serve::ArrivalEvent& event : schedule) {
    const bool point = event.kind == serve::QueryKind::kPointRead ||
                       event.kind == serve::QueryKind::kPointWrite;
    const int id = point ? PointId(event.sql) : -1;
    ids_.push_back(id);
    if (event.kind == serve::QueryKind::kPointWrite && id >= 0 &&
        id < rows) {
      ++scheduled_updates_[static_cast<size_t>(id)];
      ++group_updates_[id % 8];
      ++total_updates_;
    }
  }
}

std::string Oracle::Check(size_t index, const gdh::ClientReply& reply) {
  const serve::ArrivalEvent& event = (*schedule_)[index];
  const int id = ids_[index];
  const size_t n = reply.tuples == nullptr ? 0 : reply.tuples->size();
  switch (event.kind) {
    case serve::QueryKind::kPointRead: {
      if (id < 0 || id >= rows_) return "point read of an unknown id";
      if (n != 1) return StrFormat("id %d: %zu rows, want 1", id, n);
      int64_t v = 0;
      if (!IntAt(reply.tuples->front(), 0, &v)) {
        return StrFormat("id %d: v is not an integer", id);
      }
      const int64_t base = id % 100;
      const int64_t high = base + scheduled_updates_[static_cast<size_t>(id)];
      if (v < base || v > high) {
        return StrFormat("id %d: v = %lld, want %lld..%lld", id,
                         static_cast<long long>(v),
                         static_cast<long long>(base),
                         static_cast<long long>(high));
      }
      return "";
    }
    case serve::QueryKind::kPointWrite:
      if (id < 0 || id >= rows_) return "update of an unknown id";
      if (reply.affected_rows != 1) {
        return StrFormat("update of id %d touched %llu rows, want 1", id,
                         static_cast<unsigned long long>(reply.affected_rows));
      }
      ++acked_[static_cast<size_t>(id)];
      ++acked_updates_;
      return "";
    case serve::QueryKind::kGroupBy:
      return CheckGroups(reply, /*by_name=*/false);
    case serve::QueryKind::kJoinGroupBy:
      return CheckGroups(reply, /*by_name=*/true);
  }
  return "unknown statement kind";
}

std::string Oracle::CheckGroups(const gdh::ClientReply& reply,
                                bool by_name) const {
  const size_t n = reply.tuples == nullptr ? 0 : reply.tuples->size();
  if (n != 8) return StrFormat("%zu groups, want 8", n);
  for (size_t g = 0; g < 8; ++g) {
    const Tuple& t = (*reply.tuples)[g];
    if (t.size() != 3) return StrFormat("group row %zu has %zu columns", g, t.size());
    if (by_name) {
      if (t.at(0).type() != DataType::kString ||
          t.at(0).string_value() != kGroupNames[g]) {
        return StrFormat("group row %zu is %s, want %s", g,
                         t.at(0).ToString().c_str(), kGroupNames[g]);
      }
    } else {
      int64_t grp = -1;
      if (!IntAt(t, 0, &grp) || grp != static_cast<int64_t>(g)) {
        return StrFormat("group row %zu is %s, want %zu", g,
                         t.at(0).ToString().c_str(), g);
      }
    }
    int64_t count = 0;
    int64_t total = 0;
    if (!IntAt(t, 1, &count) || !IntAt(t, 2, &total)) {
      return StrFormat("group %zu: non-integer aggregates", g);
    }
    if (count != group_count_[g]) {
      return StrFormat("group %zu: count %lld, want %lld", g,
                       static_cast<long long>(count),
                       static_cast<long long>(group_count_[g]));
    }
    if (total < group_sum_[g] || total > group_sum_[g] + group_updates_[g]) {
      return StrFormat("group %zu: sum %lld, want %lld..%lld", g,
                       static_cast<long long>(total),
                       static_cast<long long>(group_sum_[g]),
                       static_cast<long long>(group_sum_[g] +
                                              group_updates_[g]));
    }
  }
  return "";
}

std::string Oracle::Final(core::PrismaDb* db) const {
  int64_t initial = 0;
  for (int g = 0; g < 8; ++g) initial += group_sum_[g];
  auto sum = db->Execute("SELECT SUM(v) FROM item");
  if (!sum.ok()) return "final SUM(v) failed: " + sum.status().ToString();
  int64_t got = 0;
  if (sum->tuples.size() != 1 || !IntAt(sum->tuples.front(), 0, &got)) {
    return "final SUM(v) returned no integer";
  }
  const int64_t want = initial + static_cast<int64_t>(acked_updates_);
  if (got != want) {
    return StrFormat("final SUM(v) = %lld, want %lld (initial %lld + %llu "
                     "acknowledged updates)",
                     static_cast<long long>(got), static_cast<long long>(want),
                     static_cast<long long>(initial),
                     static_cast<unsigned long long>(acked_updates_));
  }
  int bound = 0;
  for (int id = 0; id < rows_; ++id) {
    if (scheduled_updates_[static_cast<size_t>(id)] > 0) bound = id + 1;
  }
  auto rows =
      db->Execute(StrFormat("SELECT id, v FROM item WHERE id < %d", bound));
  if (!rows.ok()) return "final per-id read failed: " + rows.status().ToString();
  if (rows->tuples.size() != static_cast<size_t>(bound)) {
    return StrFormat("final per-id read: %zu rows, want %d",
                     rows->tuples.size(), bound);
  }
  for (const Tuple& t : rows->tuples) {
    int64_t id = -1;
    int64_t v = 0;
    if (!IntAt(t, 0, &id) || !IntAt(t, 1, &v) || id < 0 || id >= bound) {
      return "final per-id read: malformed row " + t.ToString();
    }
    const int64_t expect = id % 100 + acked_[static_cast<size_t>(id)];
    if (v != expect) {
      return StrFormat("final id %lld: v = %lld, want %lld",
                       static_cast<long long>(id), static_cast<long long>(v),
                       static_cast<long long>(expect));
    }
  }
  return "";
}

}  // namespace prisma::perfbench
