#ifndef PRISMA_EXEC_EXCHANGE_H_
#define PRISMA_EXEC_EXCHANGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "exec/join.h"

namespace prisma::exec {

/// One framed batch of a streaming exchange channel (DESIGN.md §10). A
/// channel is a single-producer/single-consumer tuple stream; batches carry
/// 1-based per-channel sequence numbers, and the final batch of a stream
/// sets `eos`. An empty stream is a single empty batch with seq 1 and eos.
struct TupleBatch {
  uint64_t seq = 0;
  bool eos = false;
  std::vector<Tuple> tuples;
};

/// A framed batch on the sending side: the rows are shared, so every
/// transmission of the batch (first send and retransmissions) can point at
/// them instead of copying.
struct OutboundBatch {
  uint64_t seq = 0;
  bool eos = false;
  std::shared_ptr<const std::vector<Tuple>> tuples;  // Never null.
};

/// Receiver side of one exchange channel: reorders out-of-order batches,
/// discards duplicates, and releases the in-order prefix. The consumer
/// acknowledges cumulatively (`ack()` = highest seq delivered in order) and
/// grants credit on top of that, so a lost batch or ack only ever costs a
/// retransmission, never a protocol violation.
class InboundChannel {
 public:
  /// Offers a received batch. Returns false when the batch is a duplicate
  /// (seq already delivered or already buffered) and was discarded.
  bool Offer(TupleBatch batch);

  /// Removes and returns the deliverable in-order prefix. Batches come out
  /// exactly once, in sequence order.
  std::vector<TupleBatch> TakeReady();

  /// Cumulative acknowledgement: highest seq handed out by TakeReady.
  uint64_t ack() const { return next_seq_ - 1; }

  /// True once the eos batch has been delivered in order.
  bool done() const { return finished_; }

  /// Duplicate batches discarded (retransmissions that were not needed).
  uint64_t duplicates() const { return duplicates_; }

 private:
  uint64_t next_seq_ = 1;  // Next seq TakeReady will release.
  bool finished_ = false;
  uint64_t duplicates_ = 0;
  // Reorder buffer keyed by seq; ordered so TakeReady drains the prefix
  // deterministically.
  std::map<uint64_t, TupleBatch> pending_;
};

/// The inbound channels of one stream endpoint, indexed by producer, with
/// a done-counter so completion is O(1). Each arriving batch touches only
/// its own channel (DESIGN.md §10.4): a consumer offers the batch, drains
/// that channel's ready prefix, and checks all_done() — no sweep over the
/// other channels, whose ready prefixes the previous drains left empty.
class InboundChannelSet {
 public:
  explicit InboundChannelSet(size_t channels = 0) : channels_(channels) {}

  size_t size() const { return channels_.size(); }
  bool empty() const { return channels_.empty(); }

  /// Offers a batch to channel `i`; false when it was a duplicate.
  bool Offer(size_t i, TupleBatch batch) {
    return channels_[i].Offer(std::move(batch));
  }

  /// Channel `i`'s deliverable in-order prefix (InboundChannel::TakeReady),
  /// counting the channel done the first time its eos comes out.
  std::vector<TupleBatch> TakeReady(size_t i);

  uint64_t ack(size_t i) const { return channels_[i].ack(); }

  /// True once every channel has delivered its eos (vacuously for none).
  bool all_done() const { return done_ == channels_.size(); }

 private:
  std::vector<InboundChannel> channels_;
  size_t done_ = 0;  // Channels whose eos has been delivered.
};

/// Sender side of one exchange channel. The producer materializes its
/// partition once, frames it into batches of at most `batch_rows` tuples,
/// and then sends under a credit window: batch `s` may be sent only while
/// `s <= acked + window`. Acks are cumulative; a stale ack never moves the
/// window backwards.
class OutboundChannel {
 public:
  /// Frames `tuples` into batches. Always produces at least one batch (an
  /// empty stream is one empty eos batch), so the consumer can detect
  /// completion uniformly.
  OutboundChannel(std::vector<Tuple> tuples, size_t batch_rows,
                  uint64_t window);

  /// Seq of the next batch to transmit for the first time, or 0 when every
  /// batch has been handed out at least once.
  uint64_t next_unsent() const {
    return next_send_ > last_seq() ? 0 : next_send_;
  }

  /// True when the next unsent batch exists but is outside the credit
  /// window — the channel is stalled waiting for an ack.
  bool Stalled() const {
    return next_unsent() != 0 && next_send_ > acked_ + window_;
  }

  /// Hands out the next unsent in-window batch and advances the send
  /// cursor; null when drained or stalled.
  const OutboundBatch* TakeNextToSend();

  /// The batch with sequence `seq` (for retransmission); null if out of
  /// range.
  const OutboundBatch* BatchAt(uint64_t seq) const;

  /// Applies a cumulative ack; returns true if the window advanced.
  bool OnAck(uint64_t ack);

  /// True when batch `seq` has been handed out at least once — i.e. a
  /// retransmission (not Pump) is responsible for it if it was lost.
  bool Sent(uint64_t seq) const { return seq >= 1 && seq < next_send_; }

  /// The lowest unacknowledged batch if already sent, else null: what a
  /// retransmission resends (repairing a lost batch or a lost ack).
  const OutboundBatch* Unacked() const {
    return Sent(acked_ + 1) ? BatchAt(acked_ + 1) : nullptr;
  }

  /// Unused send credit: in-window batches not yet transmitted.
  uint64_t credit() const;

  /// Adopts the credit window granted by the consumer's latest ack (the
  /// window rides on every BatchAckMsg); zero grants are ignored so a
  /// malformed ack cannot wedge the channel.
  void set_window(uint64_t window) {
    if (window > 0) window_ = window;
  }

  uint64_t acked() const { return acked_; }
  uint64_t last_seq() const { return batches_.size(); }
  bool done() const { return acked_ >= last_seq(); }

 private:
  std::vector<OutboundBatch> batches_;  // Seq s lives at index s-1.
  uint64_t window_;
  uint64_t acked_ = 0;
  uint64_t next_send_ = 1;  // Seq of the next first-transmission.
};

/// Streaming variant of exec::HashJoin (join.cc): the build side arrives
/// incrementally via AddBuild, and once FinishBuild is called each probe
/// tuple is matched immediately — so a consumer can join inbound batches as
/// they arrive instead of materializing both inputs. Matches HashJoin's
/// semantics exactly: NULL keys never join, hash collisions are re-verified
/// by key comparison, and output is Concat(left, right) regardless of which
/// side builds.
class PipelinedHashJoin {
 public:
  struct Options {
    std::vector<size_t> build_cols;  // Key columns in the build schema.
    std::vector<size_t> probe_cols;  // Key columns in the probe schema.
    bool build_is_left = true;       // Which input is the left of Concat.
    JoinFilter filter;               // Residual predicate; null = accept.
  };

  explicit PipelinedHashJoin(Options options);

  /// Inserts one build-side tuple into the hash table.
  void AddBuild(Tuple tuple);

  /// Seals the build side; probes are only valid afterwards.
  void FinishBuild() { build_finished_ = true; }
  bool build_finished() const { return build_finished_; }

  /// Probes with one tuple, appending join results to `out`.
  Status Probe(const Tuple& probe, std::vector<Tuple>* out);

  const JoinCounters& counters() const { return counters_; }
  size_t build_rows() const { return build_.size(); }

 private:
  Options options_;
  bool build_finished_ = false;
  std::vector<Tuple> build_;
  // Hash-bucket index into build_; only ever accessed by .find(), never
  // iterated, so bucket order cannot leak into results.
  std::unordered_map<uint64_t, std::vector<size_t>> table_;
  JoinCounters counters_;
};

}  // namespace prisma::exec

#endif  // PRISMA_EXEC_EXCHANGE_H_
