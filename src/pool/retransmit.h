#ifndef PRISMA_POOL_RETRANSMIT_H_
#define PRISMA_POOL_RETRANSMIT_H_

#include <algorithm>
#include <any>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "pool/owned.h"
#include "pool/runtime.h"
#include "sim/simulator.h"

// The one retransmission mechanism of the machine (DESIGN.md §8.1).
namespace prisma::pool {

/// Delays start at `first_ns` and double up to `cap_ns` (a fixed period
/// is `cap_ns == first_ns`); `budget` counts retransmissions, and the
/// firing after the budget-th one reports exhaustion instead.
struct RetryPolicy {
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  sim::SimTime first_ns = 0;
  sim::SimTime cap_ns = 0;
  int budget = 0;

  static RetryPolicy Every(sim::SimTime period, int budget = kUnbounded) {
    return {period, period, budget};
  }
  RetryPolicy Extended(int extra_retransmissions) const {
    return {first_ns, cap_ns, budget + extra_retransmissions};
  }
  sim::SimTime Next(sim::SimTime delay) const {
    return std::min(delay * 2, cap_ns);
  }
  /// How long a receiver keeps dedup state for a bounded policy: budget +
  /// 1 sends plus one gap, each at most max(first, cap), doubled for
  /// jitter and held-back duplicates.
  sim::SimTime DedupHorizonNs() const {
    return 2 * static_cast<sim::SimTime>(budget + 2) *
           std::max(first_ns, cap_ns);
  }
};

/// One timer: Arm() schedules the self-mail `kind`; on it the owner calls
/// Fire() — true: resend, then Rearm(); false: budget spent, timer idle.
/// Progress() restores the budget and first delay, leaving the pending
/// firing in place. A firing that arrives costs its PE a message handling,
/// so finished exchanges Cancel().
class RetryTimer {
 public:
  void Arm(Process* owner, const RetryPolicy& policy, const char* kind,
           std::any body = {}) {
    owner_ = owner;
    policy_ = policy;
    kind_ = kind;
    body_ = std::move(body);
    delay_ = policy_.first_ns;
    retransmissions_ = 0;
    Schedule();
  }
  bool Fire() {
    armed_ = false;
    if (spent()) return false;
    ++retransmissions_;
    return true;
  }
  void Rearm() {
    delay_ = policy_.Next(delay_);
    Schedule();
  }
  void Progress() {
    retransmissions_ = 0;
    delay_ = policy_.first_ns;
  }
  void Cancel() {
    if (armed_) owner_->runtime()->simulator()->Cancel(event_);
    armed_ = false;
  }

  bool armed() const { return armed_; }  // False between Fire and Rearm.
  bool spent() const { return retransmissions_ >= policy_.budget; }
  int64_t retransmissions() const { return retransmissions_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  void Schedule() {
    event_ = owner_->SendSelfAfter(delay_, kind_, body_);
    armed_ = true;
  }

  Process* owner_ = nullptr;
  RetryPolicy policy_;
  const char* kind_ = nullptr;
  std::any body_;
  sim::SimTime delay_ = 0;
  int64_t retransmissions_ = 0;
  sim::EventId event_ = 0;
  bool armed_ = false;
};

/// An unanswered request. Its target is re-resolved on every send so that
/// retransmissions chase a respawned process: the GDH names a fragment
/// replica, a query coordinator a work entry (SIZE_MAX = the GDH).
struct PendingRpc {
  std::string kind;
  std::any body;
  int64_t size_bits = 0;
  std::string fragment;
  size_t work_index = SIZE_MAX;
  RetryTimer timer;
};

/// Unanswered requests by request id; each timer delivers `timeout_kind`
/// with the request id as body. The owner decides what a retransmission
/// or an exhaustion means (failover, degradation) and settles the entry.
class PendingRpcTable {
 public:
  PendingRpcTable(Process* owner, const char* timeout_kind)
      : owner_(owner), timeout_kind_(timeout_kind) {}

  /// Sends (unless `target` is kNoProcess: a lost message the timer will
  /// repair) and arms the request's timer.
  void Send(uint64_t request_id, PendingRpc rpc, const RetryPolicy& policy,
            ProcessId target) {
    Transmit(rpc, target);
    rpc.timer.Arm(owner_, policy, timeout_kind_,
                  std::make_shared<uint64_t>(request_id));
    (*rpcs_)[request_id] = std::move(rpc);
  }
  /// The request a timeout mail names; its entry is null once settled.
  std::pair<uint64_t, PendingRpc*> OnTimeout(const Mail& mail) {
    const uint64_t id = *std::any_cast<std::shared_ptr<uint64_t>>(mail.body);
    auto it = rpcs_->find(id);
    return {id, it == rpcs_->end() ? nullptr : &it->second};
  }
  void Resend(PendingRpc& rpc, ProcessId target) {
    Transmit(rpc, target);
    rpc.timer.Rearm();
  }
  /// False if already settled (a duplicate reply).
  bool Settle(uint64_t request_id) {
    auto it = rpcs_->find(request_id);
    if (it == rpcs_->end()) return false;
    it->second.timer.Cancel();
    rpcs_->erase(it);
    return true;
  }
  void Clear() {
    for (auto& entry : *rpcs_) entry.second.timer.Cancel();
    rpcs_->clear();
  }

  const std::map<uint64_t, PendingRpc>& pending() const { return *rpcs_; }

 private:
  void Transmit(const PendingRpc& rpc, ProcessId target) {
    if (target != kNoProcess) {
      owner_->SendMail(target, rpc.kind, rpc.body, rpc.size_bits);
    }
  }

  Process* owner_;
  const char* timeout_kind_;
  // The one settlement contract (D6): replies and budget exhaustion
  // settle, and a finished statement sheds the stragglers.
  // PRISMA_SETTLES(rpcs_: success=Settle, exhaustion=Settle, shed=Clear)
  Owned<std::map<uint64_t, PendingRpc>> rpcs_;
};

}  // namespace prisma::pool

#endif  // PRISMA_POOL_RETRANSMIT_H_
