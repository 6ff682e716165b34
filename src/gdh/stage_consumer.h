#ifndef PRISMA_GDH_STAGE_CONSUMER_H_
#define PRISMA_GDH_STAGE_CONSUMER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/exchange.h"
#include "exec/executor.h"
#include "gdh/messages.h"
#include "gdh/pe_registry.h"
#include "obs/metrics.h"
#include "pool/owned.h"
#include "pool/retransmit.h"
#include "pool/runtime.h"

namespace prisma::gdh {

/// The inbound data plane of every consumer of tuple-batch streams
/// (DESIGN.md §10.4): stage consumers and fixpoint partitions. Its owner
/// picks the channel set a batch belongs to and drains it; the plane does
/// the rest:
///
///  * receipt: decode the frame, offer it to its channel (per-channel seq
///    dedup makes duplicated or re-executed producers harmless), charge
///    the unmarshalling of a fresh batch, count duplicates;
///  * the cumulative ack, sent for every arrival, duplicates included (a
///    lost ack is repaired by the producer's retransmission);
///  * the final ExecPlanReply, retransmitted on a timer until the
///    coordinator kills the owner at statement completion.
class ConsumerPlane : public pool::ProcessPart {
 public:
  struct Config {
    pool::ProcessId coordinator = pool::kNoProcess;
    size_t index = 0;  // Consumer index named on acks.
    uint64_t credit_window = 4;
    /// Reply retransmission period; 0 disables (fault-free runs). The
    /// coordinator normally kills the owner long before the
    /// kOrphanResendBudget cap stops an orphaned consumer.
    sim::SimTime reply_resend_ns = 0;
    sim::SimTime tuple_ns = 0;  // Unmarshalling cost per received tuple.
    obs::Counter* batches_received = nullptr;
    /// Registers the duplicate counter on the first duplicate, so
    /// fault-free metric dumps are unchanged; null = not counted.
    std::function<obs::Counter*()> dup_batches;
  };

  /// Binds the plane to `owner` (from its OnStart).
  void Start(pool::Process* owner, Config config);

  /// Decodes `msg` and offers it to channel `msg.producer` of `channels`.
  /// A frame that fails to decode can never become deliverable: its error
  /// comes back, and the owner fails the query instead of stalling the
  /// producer into its retry budget.
  Status Receive(const TupleBatchMsg& msg, exec::InboundChannelSet& channels);

  /// Acks `msg`'s channel cumulatively to its sender. Call after draining:
  /// draining moves the ack point, so the ack covers this very batch.
  void Ack(const pool::Mail& mail, const TupleBatchMsg& msg,
           const exec::InboundChannelSet& channels);

  /// Sends the final reply and arms its retransmission (the coordinator's
  /// reply-side dedup makes duplicates harmless).
  void Reply(std::shared_ptr<ExecPlanReply> reply);

  /// Handles kMailExchangeReplyResend.
  void ResendReply(const pool::Mail& mail);

 private:
  Config config_;
  pool::RetryTimer reply_timer_;  // The timer mail carries the reply.
  obs::Counter* m_dup_batches_ = nullptr;
};

/// The node-specific half of a stage consumer: what it does with the
/// batches its channels deliver in order, and its answer.
class StageSink {
 public:
  /// The final rows, or nullopt while inputs are still missing.
  using Answer = std::optional<std::vector<Tuple>>;

  virtual ~StageSink() = default;

  /// Inbound channel count of each side, indexed by TupleBatchMsg::side
  /// (0 for a side that does not move).
  virtual std::vector<size_t> Channels() const = 0;

  /// Called from the consumer's OnStart: `exec` carries the statement's
  /// executor settings with `charge` bound to the consumer's CPU; `pe` is
  /// the consumer's PE.
  virtual void Start(exec::ExecOptions exec, net::NodeId pe) = 0;

  /// Takes what became ready on channel `producer` of `side` (only the
  /// arriving batch's channel can have become ready). Returns the answer
  /// once every input is in, or the error that fails the statement.
  virtual StatusOr<Answer> Drain(int side, size_t producer,
                                 std::vector<exec::InboundChannelSet>& in) = 0;
};

/// Pipelined hash join of an exchange-lowered join part (DESIGN.md §10):
/// build batches go straight into the hash table, probe batches stream
/// through it once the build is sealed (no full-input materialization).
class HashJoinSink : public StageSink {
 public:
  /// One join input. A *moving* side arrives as `producers` batch
  /// channels; a stationary side is executed locally (`local_plan`, its
  /// Scan already retargeted at this PE's fragment) against co-located
  /// fragments once the build side is complete.
  struct SideSpec {
    bool moving = false;
    size_t producers = 0;
    std::shared_ptr<const algebra::Plan> local_plan;
  };

  struct Config {
    SideSpec left;
    SideSpec right;
    /// Which input builds the hash table (0 = left). The build side is
    /// always a moving side; a stationary side is always probed.
    int build_side = 0;
    std::vector<std::pair<size_t, size_t>> keys;
    std::shared_ptr<const algebra::Expr> predicate;
    const PeLocalRegistry* registry = nullptr;  // Stationary-side scans.
  };

  explicit HashJoinSink(Config config);

  std::vector<size_t> Channels() const override {
    return {config_.left.producers, config_.right.producers};
  }
  void Start(exec::ExecOptions exec, net::NodeId pe) override;
  StatusOr<Answer> Drain(int side, size_t producer,
                         std::vector<exec::InboundChannelSet>& in) override;

 private:
  const SideSpec& Side(int side) const {
    return side == 0 ? config_.left : config_.right;
  }
  Status Probe(const std::vector<Tuple>& tuples);
  /// Charges the join work performed since the last call (same cost
  /// formula as Executor::RunJoin).
  void ChargeJoinDelta();

  Config config_;
  exec::ExecOptions exec_;
  net::NodeId pe_ = -1;
  std::unique_ptr<exec::PipelinedHashJoin> join_;
  std::vector<Tuple> probe_buffer_;  // Moving probe rows before the seal.
  std::vector<Tuple> results_;
  bool build_done_ = false;
  exec::JoinCounters charged_;  // Counter snapshot of the last charge.

  // Prepared residual predicate (full join predicate re-checked per pair,
  // as in Executor::RunJoin).
  std::shared_ptr<exec::CompiledExpr> compiled_predicate_;
  sim::SimTime predicate_cost_ns_ = 0;
};

/// Merge stage of a multi-stage OLAP part (DESIGN.md §14): materializes
/// every producer's rows (partial aggregates or base rows routed by group
/// key, or a range slice of the global sort order) under OlapInputName()
/// and runs the merge plan over them, so only final rows are answered.
class MergeSink : public StageSink {
 public:
  struct Config {
    size_t producers = 0;  // Inbound channel count (side 0 only).
    Schema input_schema;   // Schema of the shuffled-in rows.
    /// Merge plan; its Scan names OlapInputName().
    std::shared_ptr<const algebra::Plan> merge_plan;
  };

  explicit MergeSink(Config config);

  std::vector<size_t> Channels() const override { return {config_.producers}; }
  void Start(exec::ExecOptions exec, net::NodeId /*pe*/) override {
    exec_ = std::move(exec);
  }
  StatusOr<Answer> Drain(int side, size_t producer,
                         std::vector<exec::InboundChannelSet>& in) override;

 private:
  Config config_;
  exec::ExecOptions exec_;
  std::vector<Tuple> rows_;  // Materialized input, in arrival order.
};

/// A stage consumer (DESIGN.md §10, §14): a short-lived, recovery-free
/// POOL-X process the query coordinator spawns on the PE of one anchor
/// fragment — the paper's intermediate-result OFM (§2.5). It receives
/// flow-controlled tuple batches over the consumer data plane, hands each
/// channel's in-order batches to its sink, and answers the coordinator
/// with a normal ExecPlanReply carrying the sink's rows.
class StageConsumerProcess : public pool::Process {
 public:
  struct Config {
    uint64_t exchange_id = 0;
    size_t index = 0;      // Consumer index within the exchange.
    std::string fragment;  // Anchor fragment (labels, reply attribution).
    pool::ProcessId coordinator = pool::kNoProcess;
    /// The coordinator registered this id for our ExecPlanReply.
    uint64_t reply_request_id = 0;
    /// Executor settings of the statement (charge is bound at start).
    exec::ExecOptions exec;
    uint64_t credit_window = 4;
    /// Reply retransmission period; 0 disables (fault-free runs).
    sim::SimTime reply_resend_ns = 0;
    obs::MetricsRegistry* metrics = nullptr;
  };

  StageConsumerProcess(Config config, std::unique_ptr<StageSink> sink);

  void OnStart() override;
  void OnMail(const pool::Mail& mail) override;

  std::string debug_name() const override {
    return "stage:" + config_.fragment;
  }

 private:
  void HandleBatch(const pool::Mail& mail);
  void SendReply(StatusOr<std::vector<Tuple>> rows);

  Config config_;
  // Process-local state below is wrapped in the ownership checker.
  pool::Owned<std::unique_ptr<StageSink>> sink_;
  pool::Owned<std::vector<exec::InboundChannelSet>> channels_;  // By side.
  ConsumerPlane plane_;
  bool replied_ = false;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_STAGE_CONSUMER_H_
