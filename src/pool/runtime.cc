#include "pool/runtime.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace prisma::pool {

void Process::SendMail(ProcessId to, std::string kind, std::any body,
                       int64_t size_bits) {
  PRISMA_CHECK(runtime_ != nullptr) << "process not attached";
  Mail mail;
  mail.from = id_;
  mail.to = to;
  mail.kind = std::move(kind);
  mail.body = std::move(body);
  mail.size_bits = size_bits;
  runtime_->Send(std::move(mail));
}

sim::EventId Process::SendSelfAfter(sim::SimTime delay, std::string kind,
                                    std::any body) {
  PRISMA_CHECK(runtime_ != nullptr) << "process not attached";
  Mail timer;
  timer.from = id_;
  timer.to = id_;
  timer.kind = std::move(kind);
  timer.body = std::move(body);
  timer.size_bits = 0;
  Runtime::MailRef mail(std::move(timer));
  Runtime* rt = runtime_;
  return rt->simulator()->Schedule(delay,
                                   [rt, mail]() { rt->MailArrived(mail); });
}

void Process::ChargeCpu(sim::SimTime ns) {
  PRISMA_CHECK(runtime_ != nullptr) << "process not attached";
  PRISMA_CHECK(ns >= 0);
  PRISMA_CHECK(runtime_->in_handler_) << "ChargeCpu outside a handler";
  runtime_->handler_charged_ns_ += ns;
}

Runtime::Runtime(sim::Simulator* sim, net::Network* network, CostModel costs)
    : sim_(sim),
      network_(network),
      costs_(costs),
      pe_cpu_free_at_(network->topology().num_nodes(), 0),
      pe_busy_ns_(network->topology().num_nodes(), 0) {
  // All process mail travels as net::Message payloads; one receiver per PE
  // dispatches to the addressed process.
  const int n = network_->topology().num_nodes();
  for (net::NodeId node = 0; node < n; ++node) {
    network_->SetReceiver(node, [this](const net::Message& message) {
      MailArrived(*std::any_cast<MailRef>(&message.payload));
    });
  }
}

void Runtime::AttachObservability(obs::MetricsRegistry* metrics,
                                  obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  if (metrics != nullptr) {
    m_handlers_ = metrics->GetCounter("pool.handlers_executed");
    m_dropped_ = metrics->GetCounter("pool.mail_dropped");
    m_requeues_ = metrics->GetCounter("pool.handler_requeues");
    m_pe_cpu_.clear();
    const int n = network_->topology().num_nodes();
    for (net::NodeId pe = 0; pe < n; ++pe) {
      m_pe_cpu_.push_back(
          metrics->GetCounter("pe.cpu_ns", {{"pe", std::to_string(pe)}}));
    }
  }
}

ProcessId Runtime::Spawn(net::NodeId pe, std::unique_ptr<Process> process) {
  PRISMA_CHECK(pe >= 0 && pe < network_->topology().num_nodes());
  const ProcessId id = next_id_++;
  process->runtime_ = this;
  process->id_ = id;
  process->pe_ = pe;
  processes_[id] = std::move(process);
  // OnStart runs behind the PE's CPU like any handler and pays spawn cost.
  // Liveness is checked again when the body runs: a busy PE defers it, and
  // a Kill or CrashPe in between destroys the process.
  sim_->Schedule(0, [this, pe, id]() {
    if (IsAlive(id)) ExecuteHandler(pe, id, MailRef());
  });
  return id;
}

std::string Runtime::NameOf(ProcessId id) const {
  auto it = processes_.find(id);
  return it != processes_.end() ? it->second->debug_name() : "dead-process";
}

void Runtime::Kill(ProcessId id) { processes_.erase(id); }

size_t Runtime::CrashPe(net::NodeId pe) {
  std::vector<ProcessId> victims;
  // prisma-lint: ordered - the victims are sorted before anything uses them.
  for (const auto& [id, process] : processes_) {
    if (process->pe_ == pe) victims.push_back(id);
  }
  std::sort(victims.begin(), victims.end());
  for (const ProcessId id : victims) Kill(id);
  ++pe_crashes_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("pe.crashes", {{"pe", std::to_string(pe)}})
        ->Increment();
  }
  return victims.size();
}

net::NodeId Runtime::PeOf(ProcessId id) const {
  auto it = processes_.find(id);
  PRISMA_CHECK(it != processes_.end()) << "PeOf on dead process " << id;
  return it->second->pe_;
}

void Runtime::Send(Mail mail) {
  if (metrics_ != nullptr) {
    auto [it, inserted] = m_mail_kind_.try_emplace(mail.kind);
    KindCounters& counters = it->second;
    if (inserted) {
      counters.sent =
          metrics_->GetCounter("pool.mail_sent", {{"kind", mail.kind}});
      counters.bits =
          metrics_->GetCounter("pool.mail_bits", {{"kind", mail.kind}});
    }
    counters.sent->Increment();
    counters.bits->Increment(
        static_cast<uint64_t>(std::max<int64_t>(mail.size_bits, 1)));
  }
  if (in_handler_) {
    // Released when the running handler's charged CPU completes.
    deferred_sends_.push_back(std::move(mail));
    return;
  }
  DispatchMail(MailRef(std::move(mail)));
}

const Mail* Runtime::MailIn(const net::Message& message) {
  const auto* mail = std::any_cast<MailRef>(&message.payload);
  return mail != nullptr ? &**mail : nullptr;
}

void Runtime::DispatchMail(MailRef mail) {
  auto it = processes_.find(mail->to);
  if (it == processes_.end()) {
    ++dropped_mail_;
    if (m_dropped_ != nullptr) m_dropped_->Increment();
    return;
  }
  const net::NodeId dst_pe = it->second->pe_;
  net::NodeId src_pe = dst_pe;
  auto from_it = processes_.find(mail->from);
  if (from_it != processes_.end()) src_pe = from_it->second->pe_;
  const int64_t size_bits = std::max<int64_t>(mail->size_bits, 1);
  network_->Send(src_pe, dst_pe, size_bits, std::move(mail));
}

void Runtime::MailArrived(MailRef mail) {
  auto it = processes_.find(mail->to);
  if (it == processes_.end()) {
    ++dropped_mail_;
    if (m_dropped_ != nullptr) m_dropped_->Increment();
    return;
  }
  const net::NodeId pe = it->second->pe_;
  const ProcessId tid = mail->to;
  ExecuteHandler(pe, tid, std::move(mail));
}

void Runtime::ExecuteHandler(net::NodeId pe, ProcessId tid, MailRef mail) {
  const sim::SimTime now = sim_->now();
  if (pe_cpu_free_at_[pe] > now) {
    // The PE is busy with an earlier handler; retry when it frees up.
    if (m_requeues_ != nullptr) m_requeues_->Increment();
    const uint32_t slot = parked_jobs_.Add();
    parked_jobs_[slot] = HandlerJob{pe, tid, std::move(mail)};
    sim_->ScheduleAt(pe_cpu_free_at_[pe], [this, slot]() {
      HandlerJob job = std::move(parked_jobs_[slot]);
      parked_jobs_.Free(slot);
      ExecuteHandler(job.pe, job.tid, std::move(job.mail));
    });
    return;
  }
  PRISMA_CHECK(!in_handler_) << "nested handler execution";
  in_handler_ = true;
  handler_charged_ns_ = 0;
  deferred_sends_.clear();
  {
    // Ownership checker: while the handler runs, Owned<> accesses are
    // attributed to (and checked against) this process.
    CurrentProcess::Scope scope(tid, this);
    auto it = processes_.find(tid);
    if (!mail) {
      if (it != processes_.end()) {
        handler_charged_ns_ += costs_.spawn_ns;
        it->second->OnStart();
      }
    } else if (it == processes_.end()) {
      ++dropped_mail_;
      if (m_dropped_ != nullptr) m_dropped_->Increment();
    } else {
      handler_charged_ns_ += costs_.message_handling_ns;
      it->second->OnMail(*mail);
    }
  }
  const sim::SimTime charged = handler_charged_ns_;
  in_handler_ = false;
  handler_charged_ns_ = 0;

  pe_cpu_free_at_[pe] = now + charged;
  pe_busy_ns_[pe] += charged;
  if (m_handlers_ != nullptr) {
    m_handlers_->Increment();
    m_pe_cpu_[pe]->Increment(static_cast<uint64_t>(charged));
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Span("pool", mail ? std::string_view(mail->kind)
                               : std::string_view("spawn"),
                  now, now + charged, pe, tid);
  }
  if (deferred_sends_.empty()) return;
  // The batch moves into a parked slot; deferred_sends_ takes that slot's
  // empty vector, so both keep their capacity.
  const uint32_t slot = releases_.Add();
  releases_[slot].swap(deferred_sends_);
  sim_->Schedule(charged, [this, slot]() { ReleaseSends(slot); });
}

void Runtime::ReleaseSends(uint32_t slot) {
  // DispatchMail runs no handler, so nothing parks a batch under the loop.
  std::vector<Mail>& batch = releases_[slot];
  for (Mail& m : batch) DispatchMail(MailRef(std::move(m)));
  batch.clear();
  releases_.Free(slot);
}

}  // namespace prisma::pool
