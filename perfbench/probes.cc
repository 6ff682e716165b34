#include "probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "calibrate.h"
#include "common/logging.h"
#include "exec/executor.h"
#include "oracle.h"
#include "sql/normalize.h"
#include "sql/parser.h"
#include "storage/relation.h"

namespace prisma::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Median seconds of one call of `pass`, after one warm-up call. Each
/// pass is scaled by calibration kernel runs around it (calibrate.h).
double MedianPass(const std::function<void()>& pass, double budget_s) {
  pass();
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  double kernel_before = KernelUs();
  while (samples.size() < 5 || Seconds(start) < budget_s) {
    const Clock::time_point t = Clock::now();
    pass();
    const double seconds = Seconds(t);
    const double kernel_after = KernelUs();
    samples.push_back(Scaled(seconds, kernel_before, kernel_after));
    kernel_before = kernel_after;
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

Schema ItemSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"grp", DataType::kInt64},
                 {"v", DataType::kInt64}});
}

Schema GrpDimSchema() {
  return Schema({{"grp", DataType::kInt64}, {"name", DataType::kString}});
}

template <typename T>
std::unique_ptr<algebra::Plan> Unwrap(StatusOr<std::unique_ptr<T>> plan) {
  PRISMA_CHECK(plan.ok()) << plan.status().ToString();
  return std::unique_ptr<algebra::Plan>(std::move(plan).value());
}

}  // namespace

SqlProbe ProbeSql(const std::vector<std::string>& statements,
                  double budget_s) {
  PRISMA_CHECK(!statements.empty());
  const double n = static_cast<double>(statements.size());
  SqlProbe out;
  out.normalize_us = MedianPass(
                         [&] {
                           for (const std::string& s : statements) {
                             PRISMA_CHECK(sql::NormalizeStatement(s).ok());
                           }
                         },
                         budget_s) *
                     1e6 / n;
  out.parse_us = MedianPass(
                     [&] {
                       for (const std::string& s : statements) {
                         PRISMA_CHECK(sql::ParseSql(s).ok());
                       }
                     },
                     budget_s) *
                 1e6 / n;
  return out;
}

ExecProbe ProbeExec(int fragment_rows, const core::MachineConfig& config,
                    double budget_s) {
  storage::Relation item("item", ItemSchema());
  for (int id = 0; id < fragment_rows; ++id) {
    PRISMA_CHECK(item.Insert(Tuple({Value::Int(id), Value::Int(id % 8),
                                    Value::Int(id % 100)}))
                     .ok());
  }
  storage::Relation grp_dim("grp_dim", GrpDimSchema());
  for (int g = 0; g < 8; ++g) {
    PRISMA_CHECK(grp_dim
                     .Insert(Tuple({Value::Int(g),
                                    Value::String(kGroupNames[g])}))
                     .ok());
  }
  exec::MapTableResolver resolver;
  resolver.Register("item", &item);
  resolver.Register("grp_dim", &grp_dim);
  exec::ExecOptions options;
  options.expr_mode = config.expr_mode;
  options.exec_mode = config.exec_mode;
  options.costs = config.costs;

  using algebra::Expr;
  auto scan_filter = Unwrap(algebra::SelectPlan::Create(
      algebra::ScanPlan::Create("item", ItemSchema()),
      Expr::Binary(algebra::BinaryOp::kEq,
                   Expr::ColumnIndex(0, DataType::kInt64),
                   algebra::Lit(int64_t{fragment_rows / 2}))));
  std::vector<std::unique_ptr<Expr>> groups;
  groups.push_back(Expr::ColumnIndex(1, DataType::kInt64));
  std::vector<algebra::AggSpec> aggs;
  aggs.push_back({algebra::AggFunc::kCount, nullptr, "n"});
  aggs.push_back({algebra::AggFunc::kSum,
                  Expr::ColumnIndex(2, DataType::kInt64), "total"});
  auto group_by = Unwrap(algebra::AggregatePlan::Create(
      algebra::ScanPlan::Create("item", ItemSchema()), std::move(groups),
      {"grp"}, std::move(aggs)));
  auto join = Unwrap(algebra::JoinPlan::Create(
      algebra::ScanPlan::Create("item", ItemSchema()),
      algebra::ScanPlan::Create("grp_dim", GrpDimSchema()),
      Expr::Binary(algebra::BinaryOp::kEq,
                   Expr::ColumnIndex(1, DataType::kInt64),
                   Expr::ColumnIndex(3, DataType::kInt64))));

  auto time_plan = [&](const algebra::Plan& plan, size_t want_rows) {
    const double seconds = MedianPass(
        [&] {
          exec::Executor executor(&resolver, options);
          auto result = executor.Execute(plan);
          PRISMA_CHECK(result.ok()) << result.status().ToString();
          PRISMA_CHECK(result->size() == want_rows)
              << "probe answer has " << result->size() << " rows, want "
              << want_rows;
        },
        budget_s);
    return seconds * 1e9 / static_cast<double>(fragment_rows);
  };
  ExecProbe out;
  out.scan_filter_ns_per_row = time_plan(*scan_filter, 1);
  out.group_by_ns_per_row =
      time_plan(*group_by, static_cast<size_t>(std::min(fragment_rows, 8)));
  out.hash_join_ns_per_row =
      time_plan(*join, static_cast<size_t>(fragment_rows));
  return out;
}

}  // namespace prisma::perfbench
