#include "exec/exchange.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"

namespace prisma::exec {
namespace {

bool HasNullKey(const Tuple& t, const std::vector<size_t>& cols) {
  for (size_t c : cols) {
    if (t.at(c).is_null()) return true;
  }
  return false;
}

/// Pairwise key equality with SQL NULL semantics (mirrors join.cc).
bool KeysEqual(const Tuple& a, const std::vector<size_t>& acols,
               const Tuple& b, const std::vector<size_t>& bcols) {
  for (size_t i = 0; i < acols.size(); ++i) {
    const Value& va = a.at(acols[i]);
    const Value& vb = b.at(bcols[i]);
    if (va.is_null() || vb.is_null()) return false;
    if (va.Compare(vb) != 0) return false;
  }
  return true;
}

}  // namespace

bool InboundChannel::Offer(TupleBatch batch) {
  if (batch.seq < next_seq_) {
    ++duplicates_;
    return false;
  }
  auto [it, inserted] = pending_.try_emplace(batch.seq, std::move(batch));
  if (!inserted) {
    ++duplicates_;
    return false;
  }
  return true;
}

std::vector<TupleBatch> InboundChannel::TakeReady() {
  std::vector<TupleBatch> ready;
  // prisma-lint: ordered - std::map drains in ascending seq order.
  for (auto it = pending_.begin();
       it != pending_.end() && it->first == next_seq_;) {
    if (it->second.eos) finished_ = true;
    ready.push_back(std::move(it->second));
    it = pending_.erase(it);
    ++next_seq_;
  }
  return ready;
}

std::vector<TupleBatch> InboundChannelSet::TakeReady(size_t i) {
  InboundChannel& channel = channels_[i];
  const bool was_done = channel.done();
  std::vector<TupleBatch> ready = channel.TakeReady();
  if (!was_done && channel.done()) ++done_;
  return ready;
}

OutboundChannel::OutboundChannel(std::vector<Tuple> tuples, size_t batch_rows,
                                 uint64_t window)
    : window_(window) {
  PRISMA_CHECK(batch_rows > 0);
  PRISMA_CHECK(window > 0);
  size_t i = 0;
  do {
    const size_t end = std::min(tuples.size(), i + batch_rows);
    auto rows = std::make_shared<std::vector<Tuple>>(
        std::make_move_iterator(tuples.begin() + static_cast<ptrdiff_t>(i)),
        std::make_move_iterator(tuples.begin() + static_cast<ptrdiff_t>(end)));
    i = end;
    batches_.push_back({batches_.size() + 1, i >= tuples.size(),
                        std::move(rows)});
  } while (i < tuples.size());
}

const OutboundBatch* OutboundChannel::TakeNextToSend() {
  if (next_unsent() == 0 || Stalled()) return nullptr;
  const OutboundBatch* batch = &batches_[next_send_ - 1];
  ++next_send_;
  return batch;
}

const OutboundBatch* OutboundChannel::BatchAt(uint64_t seq) const {
  if (seq == 0 || seq > batches_.size()) return nullptr;
  return &batches_[seq - 1];
}

uint64_t OutboundChannel::credit() const {
  const uint64_t limit = std::min(acked_ + window_, last_seq());
  return limit >= next_send_ ? limit - next_send_ + 1 : 0;
}

bool OutboundChannel::OnAck(uint64_t ack) {
  if (ack <= acked_) return false;  // Stale or duplicate ack.
  acked_ = std::min(ack, last_seq());
  return true;
}

PipelinedHashJoin::PipelinedHashJoin(Options options)
    : options_(std::move(options)) {
  PRISMA_CHECK(!options_.build_cols.empty());
  PRISMA_CHECK(options_.build_cols.size() == options_.probe_cols.size());
}

void PipelinedHashJoin::AddBuild(Tuple tuple) {
  PRISMA_CHECK(!build_finished_) << "AddBuild after FinishBuild";
  if (HasNullKey(tuple, options_.build_cols)) return;  // Never joins.
  build_.push_back(std::move(tuple));
  table_[HashTupleColumns(build_.back(), options_.build_cols)].push_back(
      build_.size() - 1);
  ++counters_.hash_ops;
}

Status PipelinedHashJoin::Probe(const Tuple& probe, std::vector<Tuple>* out) {
  PRISMA_CHECK(build_finished_) << "Probe before FinishBuild";
  if (HasNullKey(probe, options_.probe_cols)) return Status::OK();
  ++counters_.hash_ops;
  auto it = table_.find(HashTupleColumns(probe, options_.probe_cols));
  if (it == table_.end()) return Status::OK();
  for (const size_t bi : it->second) {
    ++counters_.compare_ops;
    const Tuple& b = build_[bi];
    // Re-verify (hash collisions) with real comparisons.
    if (!KeysEqual(b, options_.build_cols, probe, options_.probe_cols)) {
      continue;
    }
    ++counters_.pairs_examined;
    const Tuple& l = options_.build_is_left ? b : probe;
    const Tuple& r = options_.build_is_left ? probe : b;
    Tuple joined = Tuple::Concat(l, r);
    if (options_.filter != nullptr) {
      ASSIGN_OR_RETURN(bool keep, options_.filter(joined));
      if (!keep) continue;
    }
    out->push_back(std::move(joined));
  }
  return Status::OK();
}

}  // namespace prisma::exec
