#include "gdh/fixpoint_process.h"

#include <algorithm>
#include <any>
#include <utility>

#include "common/logging.h"

namespace prisma::gdh {

FixpointPeProcess::FixpointPeProcess(Config config)
    : config_(std::move(config)) {
  PRISMA_CHECK(config_.num_pes > 0);
  PRISMA_CHECK(config_.index < config_.num_pes);
}

void FixpointPeProcess::OnStart() {
  kernel_ = std::make_unique<exec::FixpointPartition>(
      config_.algorithm, config_.num_pes, config_.index);
  // The known set lives in a recovery-free intermediate-result OFM
  // (§2.5): no WAL, no checkpointing — a crashed fixpoint is re-run, not
  // recovered.
  exec::Ofm::Options ofm_options;
  ofm_options.type = exec::OfmType::kQueryOnly;
  ofm_options.exec.costs = config_.costs;
  ofm_options.exec.charge = [this](sim::SimTime ns) { ChargeCpu(ns); };
  known_ofm_ = std::make_unique<exec::Ofm>(
      "fixpoint#" + std::to_string(config_.index), config_.edge_schema,
      std::move(ofm_options));
  *edge_channels_ = exec::InboundChannelSet(config_.edge_producers);
  ConsumerPlane::Config plane;
  plane.coordinator = config_.coordinator;
  plane.index = config_.index;
  plane.credit_window = config_.credit_window;
  plane.reply_resend_ns = config_.resend_ns;
  plane.tuple_ns = config_.costs.tuple_ns;
  if (config_.metrics != nullptr) {
    const obs::Labels labels = {{"pe", std::to_string(config_.index)}};
    plane.batches_received =
        config_.metrics->GetCounter("fixpoint.batches_received", labels);
    plane.dup_batches = [this] {
      return config_.metrics->GetCounter(
          "fixpoint.dup_batches", {{"pe", std::to_string(config_.index)}});
    };
    m_batches_sent_ =
        config_.metrics->GetCounter("fixpoint.batches_sent", labels);
  }
  plane_.Start(this, std::move(plane));
}

// Handler contract (D5): a fixpoint PE consumes the recursive-query data
// plane plus the round-barrier control mail from the coordinator.
// PRISMA_HANDLES(kMailTupleBatch, kMailBatchAck, kMailFixpointStart)
// PRISMA_HANDLES(kMailFixpointRound, kMailFixpointBatchResend)
// PRISMA_HANDLES(kMailFixpointVoteResend, kMailExchangeReplyResend)
void FixpointPeProcess::OnMail(const pool::Mail& mail) {
  if (mail.kind == kMailTupleBatch) {
    HandleBatch(mail);
  } else if (mail.kind == kMailBatchAck) {
    HandleAck(mail);
  } else if (mail.kind == kMailFixpointStart) {
    HandleStart(mail);
  } else if (mail.kind == kMailFixpointRound) {
    HandleRound(mail);
  } else if (mail.kind == kMailFixpointBatchResend) {
    HandleBatchResend(mail);
  } else if (mail.kind == kMailFixpointVoteResend) {
    if (!vote_timer_.Fire() || replied_ || failed_ ||
        *last_vote_ == nullptr) {
      return;
    }
    SendMail(config_.coordinator, kMailFixpointVote, *last_vote_,
             kControlBits);
    vote_timer_.Rearm();
  } else if (mail.kind == kMailExchangeReplyResend) {
    plane_.ResendReply(mail);
  }
  // Unknown kinds are ignored (forward compatibility).
}

void FixpointPeProcess::HandleStart(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<FixpointStartMsg>>(mail.body);
  if (msg->fixpoint_id != config_.fixpoint_id) return;
  if (started_) return;  // Duplicated/rebroadcast start: idempotent.
  if (msg->peers.size() != config_.num_pes) return;
  *peers_ = msg->peers;
  started_ = true;
  Advance(nullptr);
}

void FixpointPeProcess::HandleRound(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<FixpointRoundMsg>>(mail.body);
  if (msg->fixpoint_id != config_.fixpoint_id) return;
  if (failed_ || replied_) return;
  if (msg->harvest) {
    HandleHarvest();
    return;
  }
  // The coordinator only issues round r+1 after this PE voted for round
  // r, so anything other than the successor round is a duplicated or
  // reordered directive (a dropped one is repaired by the coordinator's
  // control-plane rebroadcast).
  if (!seeded_ || msg->round != current_round_ + 1) return;
  current_round_ = msg->round;
  absorbed_new_current_ = 0;
  exec::RoutedPairs owner;
  exec::RoutedPairs index;
  round_products_ = kernel_->JoinRound(&owner, &index);
  // Same cost formula as the single-node TC shortcut: the join products
  // dominate.
  ChargeCpu(static_cast<sim::SimTime>(round_products_) *
            config_.costs.hash_ns);
  SendRoundStreams(current_round_, std::move(owner), std::move(index));
  Advance(nullptr);
}

void FixpointPeProcess::HandleBatch(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
  if (msg->exchange_id != config_.fixpoint_id) return;
  if (failed_) return;  // The coordinator is already aborting the query.
  exec::InboundChannelSet* channels = nullptr;
  if (msg->side == 0) {
    if (msg->producer >= edge_channels_->size()) return;
    channels = &*edge_channels_;
  } else {
    if (msg->producer >= config_.num_pes) return;
    channels = &(*inbound_)[msg->side];
    if (channels->empty()) {
      *channels = exec::InboundChannelSet(config_.num_pes);
    }
  }

  // An undecodable frame degrades the whole fixpoint.
  if (Status status = plane_.Receive(*msg, *channels); !status.ok()) {
    Fail(std::move(status));
    return;
  }
  const Arrival arrival{msg->side, msg->producer};
  Advance(&arrival);
  if (failed_) return;  // Advancing may have degraded; stop acking.
  plane_.Ack(mail, *msg, *channels);
}

void FixpointPeProcess::HandleAck(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<BatchAckMsg>>(mail.body);
  auto it = outbound_->find(msg->shuffle_token);
  if (it == outbound_->end()) return;  // Finished stream; stale ack.
  OutStream& out = it->second;
  out.channel.set_window(msg->credit);
  if (out.channel.OnAck(msg->ack)) {
    // Window progress: the peer is alive, so the retransmission budget
    // and backoff start over.
    out.timer.Progress();
  }
  PumpOut(it->first, out);
  if (out.channel.done()) {
    out.timer.Cancel();
    outbound_->erase(it);
  }
  // Outbound progress may complete this round's first transmissions.
  MaybeVote();
}

void FixpointPeProcess::HandleBatchResend(const pool::Mail& mail) {
  const uint64_t token = *std::any_cast<std::shared_ptr<uint64_t>>(mail.body);
  auto it = outbound_->find(token);
  if (it == outbound_->end()) return;  // Stream finished; timer is moot.
  OutStream& out = it->second;
  if (!out.timer.Fire()) {
    Fail(UnavailableError(
        "fixpoint partition " + std::to_string(config_.index) +
        " round " + std::to_string(out.round) +
        " delta stream made no progress after " +
        std::to_string(out.timer.policy().budget) +
        " retransmission windows"));
    return;
  }
  // Retransmit the lowest unacknowledged sent batch, then pump in case
  // credit is free.
  if (const exec::OutboundBatch* batch = out.channel.Unacked()) {
    SendBatchMsg(token, out, *batch, /*first=*/false);
  }
  PumpOut(token, out);
  out.timer.Rearm();
}

void FixpointPeProcess::Advance(const Arrival* arrival) {
  if (failed_ || replied_) return;
  DrainEdges(arrival);
  if (failed_) return;
  if (started_ && edges_done_ && !seeded_) Seed();
  DrainRounds(arrival);
  if (failed_) return;
  MaybeVote();
}

void FixpointPeProcess::DrainEdges(const Arrival* arrival) {
  if (edges_done_) return;
  if (arrival != nullptr && arrival->side == 0) {
    for (exec::TupleBatch& batch :
         edge_channels_->TakeReady(arrival->producer)) {
      for (const Tuple& tuple : batch.tuples) {
        const Status status = kernel_->AddEdge(tuple);
        if (!status.ok()) {
          Fail(status);
          return;
        }
      }
      // Adjacency insertion, as for build-side hash-table inserts.
      ChargeCpu(static_cast<sim::SimTime>(batch.tuples.size()) *
                config_.costs.hash_ns);
    }
  }
  // Vacuously done without edge producers.
  edges_done_ = edge_channels_->all_done();
}

void FixpointPeProcess::Seed() {
  exec::RoutedPairs owner;
  exec::RoutedPairs index;
  kernel_->Seed(&owner, &index);
  seeded_ = true;
  current_round_ = 0;
  absorbed_new_current_ = 0;
  round_products_ = 0;  // Seeding routes edges; it derives nothing.
  SendRoundStreams(0, std::move(owner), std::move(index));
}

void FixpointPeProcess::SendRoundStreams(uint64_t round,
                                         exec::RoutedPairs owner,
                                         exec::RoutedPairs index) {
  const int copies =
      config_.algorithm == exec::TcAlgorithm::kSmart ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    exec::RoutedPairs& parts = copy == 0 ? owner : index;
    for (size_t peer = 0; peer < config_.num_pes; ++peer) {
      const uint64_t token = next_token_++;
      auto [it, inserted] = outbound_->emplace(
          token,
          OutStream{exec::OutboundChannel(
                        std::vector<Tuple>(parts[peer].begin(),
                                           parts[peer].end()),
                        config_.batch_rows, config_.credit_window),
                    peers_->at(peer), SideFor(round, copy), round, {}});
      PRISMA_CHECK(inserted);
      ++(*unsent_streams_)[round];
      PumpOut(token, it->second);
      it->second.timer.Arm(this, config_.stream_retry,
                           kMailFixpointBatchResend,
                           std::make_shared<uint64_t>(token));
    }
  }
}

void FixpointPeProcess::PumpOut(uint64_t token, OutStream& out) {
  if (out.channel.next_unsent() == 0) return;
  while (const exec::OutboundBatch* batch = out.channel.TakeNextToSend()) {
    SendBatchMsg(token, out, *batch, /*first=*/true);
  }
  if (out.channel.next_unsent() != 0) return;
  // Every batch of this stream is now first-transmitted.
  auto it = unsent_streams_->find(out.round);
  if (--it->second == 0) unsent_streams_->erase(it);
}

void FixpointPeProcess::SendBatchMsg(uint64_t token, OutStream& out,
                                     const exec::OutboundBatch& batch,
                                     bool first) {
  auto msg = std::make_shared<TupleBatchMsg>();
  msg->exchange_id = config_.fixpoint_id;
  msg->side = out.side;
  msg->producer = config_.index;
  msg->shuffle_token = token;
  const int64_t bits = FrameTupleBatch(
      batch, config_.columnar, config_.costs.tuple_ns,
      [this](sim::SimTime ns) { ChargeCpu(ns); }, msg.get());
  if (first) {
    // First transmissions only: the per-round shipping-cost axis must not
    // vary with fault-plan luck beyond what the seed already fixes.
    (*wire_bits_by_round_)[out.round] += static_cast<uint64_t>(bits);
    if (m_batches_sent_ != nullptr) m_batches_sent_->Increment();
  } else if (config_.metrics != nullptr) {
    if (m_retransmits_ == nullptr) {
      m_retransmits_ = config_.metrics->GetCounter(
          "fixpoint.retransmits", {{"pe", std::to_string(config_.index)}});
    }
    m_retransmits_->Increment();
  }
  SendMail(out.peer, kMailTupleBatch, std::move(msg), bits);
}

void FixpointPeProcess::DrainRounds(const Arrival* arrival) {
  if (!seeded_) return;
  // Entering a round (seed or coordinator directive) may have made any of
  // its channels ready, since batches for it were buffered undrained; after
  // that, only an arriving batch's own channel can become ready.
  const bool sweep = swept_round_ != static_cast<int64_t>(current_round_);
  swept_round_ = static_cast<int64_t>(current_round_);
  const int copies =
      config_.algorithm == exec::TcAlgorithm::kSmart ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    auto it = inbound_->find(SideFor(current_round_, copy));
    if (it == inbound_->end()) continue;
    if (sweep) {
      for (size_t producer = 0; producer < it->second.size(); ++producer) {
        if (!DrainRoundChannel(copy, it->second, producer)) return;
      }
    } else if (arrival != nullptr && arrival->side == it->first) {
      DrainRoundChannel(copy, it->second, arrival->producer);
    }
  }
}

bool FixpointPeProcess::DrainRoundChannel(int copy,
                                          exec::InboundChannelSet& channels,
                                          size_t producer) {
  for (exec::TupleBatch& batch : channels.TakeReady(producer)) {
    ChargeCpu(static_cast<sim::SimTime>(batch.tuples.size()) *
              config_.costs.hash_ns);
    if (copy == 0) {
      std::vector<Tuple> fresh;
      absorbed_new_current_ += kernel_->AbsorbOwned(batch.tuples, &fresh);
      for (Tuple& tuple : fresh) {
        auto row = known_ofm_->Insert(exec::kAutoCommit, std::move(tuple));
        if (!row.ok()) {
          Fail(row.status());
          return false;
        }
      }
    } else {
      kernel_->AbsorbIndex(batch.tuples);
    }
  }
  return true;
}

bool FixpointPeProcess::InboundComplete(uint64_t round) {
  const int copies =
      config_.algorithm == exec::TcAlgorithm::kSmart ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    auto it = inbound_->find(SideFor(round, copy));
    // Every peer sends at least one (possibly empty) eos batch per round,
    // so a missing or incomplete channel set means the round is inflight.
    if (it == inbound_->end() || !it->second.all_done()) return false;
  }
  return true;
}

bool FixpointPeProcess::OutboundSentComplete(uint64_t round) const {
  // Streams are erased once fully acked, so anything still present for
  // this round must at least have first-transmitted every batch (the
  // vote's wire_bits are complete and the receivers can finish).
  return !unsent_streams_->contains(round);
}

void FixpointPeProcess::MaybeVote() {
  if (failed_ || replied_ || !seeded_) return;
  if (voted_round_ >= static_cast<int64_t>(current_round_)) return;
  if (!InboundComplete(current_round_)) return;
  if (!OutboundSentComplete(current_round_)) return;

  auto vote = std::make_shared<FixpointVoteMsg>();
  vote->fixpoint_id = config_.fixpoint_id;
  vote->round = current_round_;
  vote->pe = config_.index;
  vote->delta_empty = kernel_->delta_empty();
  vote->absorbed_new = absorbed_new_current_;
  vote->pairs_derived = round_products_;
  auto bits = wire_bits_by_round_->find(current_round_);
  vote->wire_bits = bits == wire_bits_by_round_->end() ? 0 : bits->second;
  voted_round_ = static_cast<int64_t>(current_round_);
  *last_vote_ = vote;
  SendMail(config_.coordinator, kMailFixpointVote, vote, kControlBits);
  if (config_.resend_ns > 0 && !vote_timer_.armed()) {
    vote_timer_.Arm(this,
                    pool::RetryPolicy::Every(config_.resend_ns,
                                             kOrphanResendBudget),
                    kMailFixpointVoteResend);
  }
}

void FixpointPeProcess::HandleHarvest() {
  if (replied_ || failed_) return;
  SendReply(Status::OK());
}

void FixpointPeProcess::SendReply(Status status) {
  if (replied_) return;
  replied_ = true;
  failed_ = !status.ok();
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = config_.reply_request_id;
  reply->status = std::move(status);
  reply->fragment = "fixpoint#" + std::to_string(config_.index);
  if (!failed_) {
    std::vector<Tuple> slice = kernel_->OwnedSorted();
    ChargeCpu(static_cast<sim::SimTime>(slice.size()) *
              config_.costs.tuple_ns);
    reply->tuples = std::make_shared<std::vector<Tuple>>(std::move(slice));
  }
  plane_.Reply(std::move(reply));
}

void FixpointPeProcess::Fail(Status status) {
  if (failed_) return;
  if (!replied_) {
    SendReply(std::move(status));
  }
  failed_ = true;
}

}  // namespace prisma::gdh
