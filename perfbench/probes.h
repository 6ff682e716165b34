#ifndef PRISMA_PERFBENCH_PROBES_H_
#define PRISMA_PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "core/prisma_db.h"

namespace prisma::perfbench {

/// Host-time probes: the benchmark's own timed calls into the public
/// functions of `sql` and `exec`. Each probe runs one untimed warm-up
/// pass, then timed passes until at least `budget_s` has elapsed (and at
/// least five passes), and reports the median pass, each pass scaled to
/// the nominal CPU speed like the end-to-end host metrics (calibrate.h).
struct SqlProbe {
  double normalize_us = 0;  // sql::NormalizeStatement per statement.
  double parse_us = 0;      // sql::ParseSql per statement.
};

/// Times the SQL front end on the workload's own statement texts.
SqlProbe ProbeSql(const std::vector<std::string>& statements,
                  double budget_s);

struct ExecProbe {
  double scan_filter_ns_per_row = 0;  // id = k over the fragment.
  double group_by_ns_per_row = 0;     // GROUP BY grp, COUNT(*), SUM(v).
  double hash_join_ns_per_row = 0;    // item JOIN grp_dim ON grp.
};

/// Times exec::Executor on a fragment-sized `item` relation holding the
/// rows the serving schema loads, and the 8-row `grp_dim`, in the
/// machine's default expression and execution modes.
ExecProbe ProbeExec(int fragment_rows, const core::MachineConfig& config,
                    double budget_s);

}  // namespace prisma::perfbench

#endif  // PRISMA_PERFBENCH_PROBES_H_
