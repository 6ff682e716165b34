#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace prisma::net {

Network::Network(sim::Simulator* sim, Topology topology, LinkParams params)
    : sim_(sim),
      topology_(std::move(topology)),
      params_(params),
      links_(static_cast<size_t>(topology_.num_nodes()) *
             topology_.num_nodes()),
      receivers_(topology_.num_nodes()),
      delivery_times_(topology_.num_nodes()) {}

void Network::SetReceiver(NodeId node, Receiver receiver) {
  receivers_[node] = std::move(receiver);
}

void Network::SetFaultPlan(FaultPlan plan) {
  fault_plan_ = std::move(plan);
  faults_active_ = fault_plan_.active();
  fault_rng_ = Rng(fault_plan_.seed);
}

const LinkFault& Network::FaultFor(NodeId from, NodeId to) const {
  auto it = fault_plan_.per_link.find({from, to});
  return it != fault_plan_.per_link.end() ? it->second : fault_plan_.link;
}

bool Network::LinkDown(NodeId from, NodeId to, sim::SimTime now) const {
  for (const LinkDownWindow& w : fault_plan_.down_windows) {
    const bool on_link = (w.a == from && w.b == to) ||
                         (w.a == to && w.b == from);
    if (on_link && now >= w.from_ns && now < w.until_ns) return true;
  }
  return false;
}

obs::Counter* Network::LazyCounter(obs::Counter** slot, const char* name) {
  if (*slot == nullptr && metrics_ != nullptr) {
    *slot = metrics_->GetCounter(name);
  }
  return *slot;
}

void Network::AttachObservability(obs::MetricsRegistry* metrics,
                                  obs::Tracer* tracer) {
  metrics_ = metrics;
  if (metrics != nullptr) {
    m_sent_ = metrics->GetCounter("net.messages_sent");
    m_delivered_ = metrics->GetCounter("net.messages_delivered");
    m_link_bits_ = metrics->GetCounter("net.link_bits");
    m_packets_ = metrics->GetCounter("net.packets_sent");
    m_hop_events_ = metrics->GetCounter("net.hop_events");
    m_latency_ = metrics->GetHistogram("net.latency_ns");
  }
  tracer_ = tracer;
}

void Network::Send(NodeId src, NodeId dst, int64_t size_bits,
                   std::any payload) {
  PRISMA_CHECK(src >= 0 && src < topology_.num_nodes());
  PRISMA_CHECK(dst >= 0 && dst < topology_.num_nodes());
  PRISMA_CHECK(size_bits > 0);
  ++stats_.messages_sent;
  if (m_sent_ != nullptr) {
    m_sent_->Increment();
    // The hardware moves 256-bit packets; a larger message is a burst.
    m_packets_->Increment(
        static_cast<uint64_t>((size_bits + kPacketBits - 1) / kPacketBits));
  }
  Message message;
  message.src = src;
  message.dst = dst;
  message.size_bits = size_bits;
  message.sent_at = sim_->now();
  message.payload = std::move(payload);
  const uint32_t slot = Park(std::move(message));
  if (src == dst) {
    sim_->Schedule(params_.local_delivery_ns, [this, slot]() {
      Deliver(inflight_[slot].message.dst, slot);
    });
    return;
  }
  Arrive(src, slot);
}

uint32_t Network::Park(Message message) {
  const uint32_t slot = inflight_.Add();
  inflight_[slot].message = std::move(message);
  return slot;
}

void Network::Unpark(uint32_t slot) {
  inflight_[slot].message.payload.reset();
  inflight_.Free(slot);
}

void Network::Arrive(NodeId node, uint32_t slot) {
  const NodeId dst = inflight_[slot].message.dst;
  if (node == dst) {
    Deliver(node, slot);
    return;
  }
  const NodeId hop = topology_.NextHop(node, dst);
  LinkState& l = link(node, hop);
  const sim::SimTime now = sim_->now();

  // Backpressure watermark: the DBMS layers retry on loss, so a saturated
  // link may shed load instead of queueing without bound.
  if (params_.max_link_backlog > 0 && l.backlog >= params_.max_link_backlog) {
    ++stats_.backpressure;
    if (obs::Counter* c = LazyCounter(&m_backpressure_, "net.backpressure")) {
      c->Increment();
    }
    if (params_.drop_on_backlog) {
      ++stats_.dropped;
      if (obs::Counter* c = LazyCounter(&m_dropped_, "net.dropped")) {
        c->Increment();
      }
      Unpark(slot);
      return;
    }
  }

  // Fault injection happens at link entry: a dropped message never
  // occupies the link; a duplicate re-enters this hop as a fresh arrival
  // (and redraws its own fate); jitter stretches the hop's latency.
  sim::SimTime jitter = 0;
  if (faults_active_ &&
      !(fault_exempt_ && fault_exempt_(inflight_[slot].message))) {
    const LinkFault& fault = FaultFor(node, hop);
    if (LinkDown(node, hop, now) ||
        (fault.drop_probability > 0 &&
         fault_rng_.NextBool(fault.drop_probability))) {
      ++stats_.dropped;
      if (obs::Counter* c = LazyCounter(&m_dropped_, "net.dropped")) {
        c->Increment();
      }
      Unpark(slot);
      return;
    }
    if (fault.duplicate_probability > 0 &&
        fault_rng_.NextBool(fault.duplicate_probability)) {
      ++stats_.duplicated;
      if (obs::Counter* c = LazyCounter(&m_duplicated_, "net.duplicated")) {
        c->Increment();
      }
      Message copy = inflight_[slot].message;
      const uint32_t dup = Park(std::move(copy));
      inflight_[dup].to = node;
      sim_->Schedule(0, [this, dup]() { Arrive(inflight_[dup].to, dup); });
    }
    if (fault.max_extra_delay_ns > 0) {
      jitter = static_cast<sim::SimTime>(fault_rng_.Uniform(
          static_cast<uint64_t>(fault.max_extra_delay_ns) + 1));
      stats_.delayed_ns += jitter;
      if (obs::Counter* c = LazyCounter(&m_delayed_ns_, "net.delayed_ns")) {
        c->Increment(static_cast<uint64_t>(jitter));
      }
    }
  }

  InFlight& parked = inflight_[slot];
  const int64_t size_bits = parked.message.size_bits;
  const sim::SimTime serialization =
      size_bits * sim::kNanosPerSecond / params_.bandwidth_bps;
  const sim::SimTime depart = std::max(now, l.free_at);
  const sim::SimTime arrival =
      depart + serialization + params_.propagation_ns + jitter;
  l.free_at = depart + serialization;
  l.busy_ns += serialization;
  ++l.backlog;
  stats_.max_link_backlog = std::max(stats_.max_link_backlog, l.backlog);
  stats_.link_bits += size_bits;
  if (m_link_bits_ != nullptr) {
    m_link_bits_->Increment(static_cast<uint64_t>(size_bits));
  }
  parked.from = node;
  parked.to = hop;
  sim_->ScheduleAt(arrival, [this, slot]() {
    const InFlight& p = inflight_[slot];
    --link(p.from, p.to).backlog;
    if (m_hop_events_ != nullptr) m_hop_events_->Increment();
    Arrive(p.to, slot);
  });
}

void Network::Deliver(NodeId node, uint32_t slot) {
  // Moved out and freed before the upcall: the receiver may Send, which
  // can grow (and so move) the slab.
  Message message = std::move(inflight_[slot].message);
  Unpark(slot);
  if (!receivers_[node]) {
    // The addressee has no endpoint (crashed or never installed): account
    // for it instead of silently discarding.
    ++stats_.no_receiver;
    if (obs::Counter* c = LazyCounter(&m_no_receiver_, "net.no_receiver")) {
      c->Increment();
    }
    return;
  }
  ++stats_.messages_delivered;
  const sim::SimTime latency = sim_->now() - message.sent_at;
  stats_.total_latency_ns += latency;
  stats_.max_latency_ns = std::max(stats_.max_latency_ns, latency);
  if (m_delivered_ != nullptr) {
    m_delivered_->Increment();
    m_latency_->Record(latency);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    // pid = destination PE, tid -1 = the network lane of that PE.
    tracer_->Span("net", "msg", message.sent_at, sim_->now(), node, -1, "src",
                  std::to_string(message.src));
  }
  if (record_deliveries_) delivery_times_[node].push_back(sim_->now());
  receivers_[node](message);
}

double Network::PeakLinkUtilization() const {
  const sim::SimTime now = sim_->now();
  if (now <= 0) return 0;
  sim::SimTime peak = 0;
  for (const LinkState& l : links_) peak = std::max(peak, l.busy_ns);
  return static_cast<double>(peak) / static_cast<double>(now);
}

int Network::TotalBacklog() const {
  int total = 0;
  for (const LinkState& l : links_) total += l.backlog;
  return total;
}

}  // namespace prisma::net
