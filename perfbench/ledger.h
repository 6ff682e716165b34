#ifndef PRISMA_PERFBENCH_LEDGER_H_
#define PRISMA_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace prisma::perfbench {

/// Virtual time a traced run spent in each layer, rebuilt from the
/// machine's own Chrome-trace dump (PrismaDb::DumpTrace) without any
/// instrumentation of the program.
///
/// `pool` spans are PE handler executions: they never nest, so a span's
/// duration is its self time. The handling process is the span's tid,
/// and the trace gives each tid a layer through the work it does:
///   coordinator  tids of the gdh-category "query"/"prismalog" spans;
///   gdh          handlers of client_stmt / lock_batch, or 2pc.* spans;
///   ofm          handlers of exec_plan / write / txn_control /
///                shuffle_plan (only fragment managers receive these);
///   client       handlers of client_reply (the harness endpoint);
///   exchange     every other process (exchange consumers, OLAP merges).
/// `net` spans run from send to delivery of one message, so they include
/// link queueing; they are summed as the network's share.
struct Ledger {
  int64_t gdh_ns = 0;
  int64_t coordinator_ns = 0;
  int64_t ofm_ns = 0;
  int64_t exchange_ns = 0;
  int64_t client_ns = 0;
  int64_t net_ns = 0;
  uint64_t events = 0;
};

/// Parses Tracer::DumpJson output into `out`. Returns an empty string on
/// success, else a description of the malformed input.
std::string BuildLedger(std::string_view trace_json, Ledger* out);

}  // namespace prisma::perfbench

#endif  // PRISMA_PERFBENCH_LEDGER_H_
