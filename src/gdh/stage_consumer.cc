#include "gdh/stage_consumer.h"

#include <any>

#include "common/logging.h"
#include "exec/expr_eval.h"
#include "gdh/distributed_plan.h"
#include "storage/relation.h"

namespace prisma::gdh {

// ------------------------------------------------------------ ConsumerPlane

void ConsumerPlane::Start(pool::Process* owner, Config config) {
  Attach(owner);
  config_ = std::move(config);
}

Status ConsumerPlane::Receive(const TupleBatchMsg& msg,
                              exec::InboundChannelSet& channels) {
  auto rows_or = TupleBatchRows(msg);
  if (!rows_or.ok()) return rows_or.status();
  exec::TupleBatch batch;
  batch.seq = msg.seq;
  batch.eos = msg.eos;
  batch.tuples = std::move(rows_or).value();
  const size_t rows = batch.tuples.size();
  if (channels.Offer(msg.producer, std::move(batch))) {
    // Unmarshalling cost of a fresh batch, as for gathered reply tuples.
    ChargeCpu(static_cast<sim::SimTime>(rows) * config_.tuple_ns);
    if (config_.batches_received != nullptr) {
      config_.batches_received->Increment();
    }
  } else if (config_.dup_batches != nullptr) {
    if (m_dup_batches_ == nullptr) m_dup_batches_ = config_.dup_batches();
    m_dup_batches_->Increment();
  }
  return Status::OK();
}

void ConsumerPlane::Ack(const pool::Mail& mail, const TupleBatchMsg& msg,
                        const exec::InboundChannelSet& channels) {
  auto ack = std::make_shared<BatchAckMsg>();
  ack->shuffle_token = msg.shuffle_token;
  ack->consumer = config_.index;
  ack->ack = channels.ack(msg.producer);
  ack->credit = config_.credit_window;
  SendMail(mail.from, kMailBatchAck, std::move(ack), kControlBits);
}

void ConsumerPlane::Reply(std::shared_ptr<ExecPlanReply> reply) {
  SendMail(config_.coordinator, kMailExecPlanReply, reply, reply->WireBits());
  if (config_.reply_resend_ns > 0) {
    reply_timer_.Arm(owner(),
                     pool::RetryPolicy::Every(config_.reply_resend_ns,
                                              kOrphanResendBudget),
                     kMailExchangeReplyResend, std::move(reply));
  }
}

void ConsumerPlane::ResendReply(const pool::Mail& mail) {
  if (!reply_timer_.Fire()) return;
  auto reply = std::any_cast<std::shared_ptr<ExecPlanReply>>(mail.body);
  SendMail(config_.coordinator, kMailExecPlanReply, reply, reply->WireBits());
  // The last retransmission leaves no timer behind.
  if (!reply_timer_.spent()) reply_timer_.Rearm();
}

// ------------------------------------------------------------- HashJoinSink

HashJoinSink::HashJoinSink(Config config) : config_(std::move(config)) {
  PRISMA_CHECK(config_.build_side == 0 || config_.build_side == 1);
  // The build side is fully received before probing starts, so it must be
  // a moving side; a stationary input can always stream into the probe.
  PRISMA_CHECK(Side(config_.build_side).moving);
  const SideSpec& probe = Side(1 - config_.build_side);
  PRISMA_CHECK(probe.moving || probe.local_plan != nullptr);
  PRISMA_CHECK(!config_.keys.empty());
}

void HashJoinSink::Start(exec::ExecOptions exec, net::NodeId pe) {
  exec_ = std::move(exec);
  pe_ = pe;
  exec::PipelinedHashJoin::Options options;
  const bool build_left = config_.build_side == 0;
  options.build_is_left = build_left;
  for (const auto& [l, r] : config_.keys) {
    options.build_cols.push_back(build_left ? l : r);
    options.probe_cols.push_back(build_left ? r : l);
  }
  if (config_.predicate != nullptr) {
    if (exec_.expr_mode == exec::ExprMode::kCompiled) {
      auto compiled = exec::CompileExpr(*config_.predicate);
      if (compiled.ok()) {
        compiled_predicate_ = std::make_shared<exec::CompiledExpr>(
            std::move(compiled).value());
        predicate_cost_ns_ =
            static_cast<sim::SimTime>(
                compiled_predicate_->num_instructions()) *
            exec_.costs.compiled_instr_ns;
      }
    }
    if (compiled_predicate_ == nullptr) {
      predicate_cost_ns_ =
          static_cast<sim::SimTime>(config_.predicate->TreeSize()) *
          exec_.costs.interpreted_node_ns;
    }
    options.filter = [this](const Tuple& tuple) -> StatusOr<bool> {
      exec_.charge(predicate_cost_ns_);
      return compiled_predicate_ != nullptr
                 ? compiled_predicate_->EvalPredicate(tuple)
                 : exec::EvalPredicate(*config_.predicate, tuple);
    };
  }
  join_ = std::make_unique<exec::PipelinedHashJoin>(std::move(options));
}

StatusOr<StageSink::Answer> HashJoinSink::Drain(
    int side, size_t producer, std::vector<exec::InboundChannelSet>& in) {
  const int probe_side = 1 - config_.build_side;
  exec::InboundChannelSet& build = in[config_.build_side];
  exec::InboundChannelSet& probe = in[probe_side];

  // Build phase: insert in-order build batches into the hash table.
  if (side == config_.build_side) {
    for (exec::TupleBatch& batch : build.TakeReady(producer)) {
      for (Tuple& tuple : batch.tuples) join_->AddBuild(std::move(tuple));
    }
  }
  if (!build_done_ && build.all_done()) {
    build_done_ = true;
    join_->FinishBuild();
    ChargeJoinDelta();
  }

  // A stationary probe side runs locally once the build is sealed.
  if (!Side(probe_side).moving) {
    if (!build_done_) return Answer();
    PeLocalResolver resolver(config_.registry, pe_);
    exec::Executor executor(&resolver, exec_);
    StatusOr<std::vector<Tuple>> rows =
        executor.Execute(*Side(probe_side).local_plan);
    if (!rows.ok()) return rows.status();
    RETURN_IF_ERROR(Probe(*rows));
    return Answer(std::move(results_));
  }

  // Moving probe tuples arriving before the build is sealed are buffered;
  // everything after streams straight through the join.
  if (side == probe_side) {
    for (exec::TupleBatch& batch : probe.TakeReady(producer)) {
      if (build_done_) {
        RETURN_IF_ERROR(Probe(batch.tuples));
      } else {
        for (Tuple& tuple : batch.tuples) {
          probe_buffer_.push_back(std::move(tuple));
        }
      }
    }
  }
  if (!build_done_) return Answer();
  if (!probe_buffer_.empty()) {
    std::vector<Tuple> buffered = std::move(probe_buffer_);
    probe_buffer_.clear();
    RETURN_IF_ERROR(Probe(buffered));
  }
  if (!probe.all_done()) return Answer();
  return Answer(std::move(results_));
}

Status HashJoinSink::Probe(const std::vector<Tuple>& tuples) {
  for (const Tuple& tuple : tuples) {
    RETURN_IF_ERROR(join_->Probe(tuple, &results_));
  }
  ChargeJoinDelta();
  return Status::OK();
}

void HashJoinSink::ChargeJoinDelta() {
  const exec::JoinCounters& counters = join_->counters();
  exec_.charge(
      static_cast<sim::SimTime>(counters.hash_ops - charged_.hash_ops) *
          exec_.costs.hash_ns +
      static_cast<sim::SimTime>(counters.compare_ops - charged_.compare_ops) *
          exec_.costs.compare_ns +
      static_cast<sim::SimTime>(counters.pairs_examined -
                                charged_.pairs_examined) *
          exec_.costs.tuple_ns);
  charged_ = counters;
}

// ---------------------------------------------------------------- MergeSink

MergeSink::MergeSink(Config config) : config_(std::move(config)) {
  PRISMA_CHECK(config_.merge_plan != nullptr);
  PRISMA_CHECK(config_.producers > 0);
}

StatusOr<StageSink::Answer> MergeSink::Drain(
    int side, size_t producer, std::vector<exec::InboundChannelSet>& in) {
  // Only this batch's channel can have become ready, so the materialized
  // input keeps the (deterministic) simulated arrival order.
  for (exec::TupleBatch& batch : in[side].TakeReady(producer)) {
    for (Tuple& tuple : batch.tuples) rows_.push_back(std::move(tuple));
  }
  if (!in[side].all_done()) return Answer();

  // Materialize the shuffled-in slice under the sentinel input name and
  // run the merge plan over it (combining aggregation / slice sort).
  storage::Relation input(OlapInputName(), config_.input_schema);
  for (Tuple& tuple : rows_) {
    RETURN_IF_ERROR(input.Insert(std::move(tuple)).status());
  }
  rows_.clear();
  exec::MapTableResolver resolver;
  resolver.Register(OlapInputName(), &input);
  exec::Executor executor(&resolver, exec_);
  StatusOr<std::vector<Tuple>> result = executor.Execute(*config_.merge_plan);
  if (!result.ok()) return result.status();
  return Answer(std::move(result).value());
}

// ----------------------------------------------------- StageConsumerProcess

StageConsumerProcess::StageConsumerProcess(Config config,
                                           std::unique_ptr<StageSink> sink)
    : config_(std::move(config)), sink_(std::move(sink)) {}

void StageConsumerProcess::OnStart() {
  config_.exec.charge = [this](sim::SimTime ns) { ChargeCpu(ns); };
  StageSink& sink = *sink_.get();
  sink.Start(config_.exec, pe());
  const std::vector<size_t> producers = sink.Channels();
  *channels_ = std::vector<exec::InboundChannelSet>(producers.begin(),
                                                    producers.end());
  ConsumerPlane::Config plane;
  plane.coordinator = config_.coordinator;
  plane.index = config_.index;
  plane.credit_window = config_.credit_window;
  plane.reply_resend_ns = config_.reply_resend_ns;
  plane.tuple_ns = config_.exec.costs.tuple_ns;
  if (config_.metrics != nullptr) {
    plane.batches_received = config_.metrics->GetCounter(
        "exchange.batches_received", {{"fragment", config_.fragment}});
    plane.dup_batches = [this] {
      return config_.metrics->GetCounter("exchange.dup_batches",
                                         {{"fragment", config_.fragment}});
    };
  }
  plane_.Start(this, std::move(plane));
}

// Handler contract (D5): a stage consumer owns the shuffle data plane.
// PRISMA_HANDLES(kMailTupleBatch, kMailExchangeReplyResend)
void StageConsumerProcess::OnMail(const pool::Mail& mail) {
  if (mail.kind == kMailTupleBatch) {
    HandleBatch(mail);
  } else if (mail.kind == kMailExchangeReplyResend) {
    plane_.ResendReply(mail);
  }
  // Unknown kinds are ignored (forward compatibility).
}

void StageConsumerProcess::HandleBatch(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
  if (msg->exchange_id != config_.exchange_id) return;
  if (msg->side < 0 || static_cast<size_t>(msg->side) >= channels_->size()) {
    return;
  }
  exec::InboundChannelSet& channels = (*channels_)[msg->side];
  if (msg->producer >= channels.size()) return;

  if (Status status = plane_.Receive(*msg, channels); !status.ok()) {
    SendReply(std::move(status));
    return;
  }
  if (!replied_) {
    StatusOr<StageSink::Answer> answer =
        sink_.get()->Drain(msg->side, msg->producer, *channels_);
    if (!answer.ok()) {
      SendReply(answer.status());
    } else if (answer->has_value()) {
      SendReply(std::move(**answer));
    }
  }
  plane_.Ack(mail, *msg, channels);
}

void StageConsumerProcess::SendReply(StatusOr<std::vector<Tuple>> rows) {
  if (replied_) return;
  replied_ = true;
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = config_.reply_request_id;
  reply->status = rows.status();
  reply->fragment = config_.fragment;
  if (rows.ok()) {
    reply->tuples =
        std::make_shared<std::vector<Tuple>>(std::move(rows).value());
  }
  plane_.Reply(std::move(reply));
}

}  // namespace prisma::gdh
