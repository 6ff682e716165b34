#ifndef PRISMA_PERFBENCH_ORACLE_H_
#define PRISMA_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/prisma_db.h"
#include "gdh/messages.h"
#include "serve/workload.h"

namespace prisma::perfbench {

/// grp_dim's name of group g, as SetupSchema loads it.
inline constexpr const char* kGroupNames[8] = {
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"};

/// Answer oracle for the serving schema that
/// serve::WorkloadGenerator::SetupSchema loads: row `id` of `item` holds
/// grp = id % 8 and v = id % 100, and grp_dim names group g with the g-th
/// of alpha..hotel. Every expected answer is derived from that load
/// formula and the statements the schedule issues, never by asking the
/// machine, so a fast wrong answer fails the run.
///
/// Point reads and aggregates race with concurrent UPDATEs on oltp_mix,
/// so a read of id k may see any of the schedule's increments of k:
/// v lies in [k % 100, k % 100 + updates of k]. On read-only schedules
/// that interval is a single value and every check is exact. The exact
/// write check is Final(): once the run has drained, each id holds its
/// initial value plus its acknowledged increments.
class Oracle {
 public:
  Oracle(int rows, const std::vector<serve::ArrivalEvent>& schedule);

  /// Checks the reply to schedule[index]. Returns an empty string when
  /// the answer is correct, else why it is wrong. Overloaded and other
  /// error replies are not answers and are not checked here.
  std::string Check(size_t index, const gdh::ClientReply& reply);

  /// For schedules with writes, after the machine has drained: SUM(v)
  /// equals the initial sum plus the acknowledged one-row UPDATEs, and
  /// each updated id holds exactly its own acknowledged increments.
  /// Runs two statements on `db`. Returns an empty string when correct.
  std::string Final(core::PrismaDb* db) const;

  bool has_writes() const { return total_updates_ > 0; }
  uint64_t acked_updates() const { return acked_updates_; }

 private:
  std::string CheckGroups(const gdh::ClientReply& reply,
                          bool by_name) const;

  int rows_;
  const std::vector<serve::ArrivalEvent>* schedule_;
  /// Point id of each statement (-1 for aggregates).
  std::vector<int> ids_;
  /// UPDATEs of each id in the schedule, and those acknowledged so far.
  std::vector<int64_t> scheduled_updates_;
  std::vector<int64_t> acked_;
  int64_t group_count_[8] = {};
  int64_t group_sum_[8] = {};
  int64_t group_updates_[8] = {};
  uint64_t total_updates_ = 0;
  uint64_t acked_updates_ = 0;
};

}  // namespace prisma::perfbench

#endif  // PRISMA_PERFBENCH_ORACLE_H_
