#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "pool/retransmit.h"
#include "pool/runtime.h"
#include "sim/simulator.h"

namespace prisma::pool {
namespace {

/// Test fixture wiring a simulator + 2x2 mesh network + runtime.
class PoolTest : public ::testing::Test {
 protected:
  PoolTest()
      : network_(&sim_, net::Topology::Mesh(2, 2)), runtime_(&sim_, &network_) {}

  sim::Simulator sim_;
  net::Network network_;
  Runtime runtime_;
};

/// Records every mail it receives.
class Recorder : public Process {
 public:
  void OnMail(const Mail& mail) override {
    kinds.push_back(mail.kind);
    senders.push_back(mail.from);
    times.push_back(runtime()->simulator()->now());
  }
  std::vector<std::string> kinds;
  std::vector<ProcessId> senders;
  std::vector<sim::SimTime> times;
};

/// Sends one greeting to a peer on start.
class Greeter : public Process {
 public:
  explicit Greeter(ProcessId peer) : peer_(peer) {}
  void OnStart() override { SendMail(peer_, "hello", std::string("hi"), 512); }
  void OnMail(const Mail&) override {}

 private:
  ProcessId peer_;
};

TEST_F(PoolTest, SpawnRunsOnStart) {
  class Starter : public Process {
   public:
    explicit Starter(bool* flag) : flag_(flag) {}
    void OnStart() override { *flag_ = true; }
    void OnMail(const Mail&) override {}
   private:
    bool* flag_;
  };
  bool started = false;
  runtime_.Spawn(0, std::make_unique<Starter>(&started));
  sim_.Run();
  EXPECT_TRUE(started);
  EXPECT_EQ(runtime_.num_processes(), 1u);
}

TEST_F(PoolTest, CrossPeMailIsDeliveredViaNetwork) {
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  const ProcessId rid = runtime_.Spawn(3, std::move(recorder));
  runtime_.Spawn(0, std::make_unique<Greeter>(rid));
  sim_.Run();
  ASSERT_EQ(rec->kinds.size(), 1u);
  EXPECT_EQ(rec->kinds[0], "hello");
  // PE 0 -> PE 3 on a 2x2 mesh is 2 hops; bits crossed links.
  EXPECT_GT(network_.stats().link_bits, 0);
  EXPECT_GT(rec->times[0], 0);
}

TEST_F(PoolTest, SamePeMailSkipsLinks) {
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  const ProcessId rid = runtime_.Spawn(1, std::move(recorder));
  runtime_.Spawn(1, std::make_unique<Greeter>(rid));
  sim_.Run();
  ASSERT_EQ(rec->kinds.size(), 1u);
  EXPECT_EQ(network_.stats().link_bits, 0);
}

TEST_F(PoolTest, MailToDeadProcessIsDropped) {
  auto recorder = std::make_unique<Recorder>();
  const ProcessId rid = runtime_.Spawn(3, std::move(recorder));
  runtime_.Kill(rid);
  runtime_.Spawn(0, std::make_unique<Greeter>(rid));
  sim_.Run();
  EXPECT_GE(runtime_.dropped_mail(), 1u);
}

TEST_F(PoolTest, ChargedCpuSerializesHandlersOnOnePe) {
  /// Each mail burns 1ms of CPU; deliveries to the same PE must be spaced
  /// at least 1ms apart even though they arrive nearly simultaneously.
  class Burner : public Process {
   public:
    void OnMail(const Mail&) override {
      ChargeCpu(1 * sim::kNanosPerMilli);
      handled_at.push_back(runtime()->simulator()->now());
    }
    std::vector<sim::SimTime> handled_at;
  };
  auto burner = std::make_unique<Burner>();
  Burner* b = burner.get();
  const ProcessId bid = runtime_.Spawn(3, std::move(burner));

  class Blaster : public Process {
   public:
    explicit Blaster(ProcessId to) : to_(to) {}
    void OnStart() override {
      for (int i = 0; i < 3; ++i) SendMail(to_, "burn", {}, 256);
    }
    void OnMail(const Mail&) override {}
   private:
    ProcessId to_;
  };
  runtime_.Spawn(0, std::make_unique<Blaster>(bid));
  sim_.Run();
  ASSERT_EQ(b->handled_at.size(), 3u);
  EXPECT_GE(b->handled_at[1] - b->handled_at[0], 1 * sim::kNanosPerMilli);
  EXPECT_GE(b->handled_at[2] - b->handled_at[1], 1 * sim::kNanosPerMilli);
  // The PE accumulated at least the 3ms of charged work.
  EXPECT_GE(runtime_.pe_busy_ns(3), 3 * sim::kNanosPerMilli);
}

TEST_F(PoolTest, DeferredSendsReleaseAfterChargedWork) {
  /// A handler that charges CPU before sending: the reply must not arrive
  /// at the peer before the charged work is complete.
  class Worker : public Process {
   public:
    void OnMail(const Mail& mail) override {
      ChargeCpu(5 * sim::kNanosPerMilli);
      SendMail(mail.from, "done", {}, 256);
    }
  };
  class Caller : public Process {
   public:
    explicit Caller(ProcessId worker) : worker_(worker) {}
    void OnStart() override {
      sent_at = runtime()->simulator()->now();
      SendMail(worker_, "work", {}, 256);
    }
    void OnMail(const Mail& mail) override {
      if (mail.kind == "done") done_at = runtime()->simulator()->now();
    }
    sim::SimTime sent_at = -1;
    sim::SimTime done_at = -1;
   private:
    ProcessId worker_;
  };
  auto worker = std::make_unique<Worker>();
  const ProcessId wid = runtime_.Spawn(3, std::move(worker));
  auto caller = std::make_unique<Caller>(wid);
  Caller* c = caller.get();
  runtime_.Spawn(0, std::move(caller));
  sim_.Run();
  ASSERT_GE(c->done_at, 0);
  EXPECT_GE(c->done_at - c->sent_at, 5 * sim::kNanosPerMilli);
}

TEST_F(PoolTest, SendSelfAfterActsAsTimer) {
  class Ticker : public Process {
   public:
    void OnStart() override { SendSelfAfter(2 * sim::kNanosPerMilli, "tick"); }
    void OnMail(const Mail& mail) override {
      if (mail.kind == "tick") {
        ticked_at = runtime()->simulator()->now();
      }
    }
    sim::SimTime ticked_at = -1;
  };
  auto t = std::make_unique<Ticker>();
  Ticker* raw = t.get();
  runtime_.Spawn(2, std::move(t));
  sim_.Run();
  EXPECT_GE(raw->ticked_at, 2 * sim::kNanosPerMilli);
  // Timers do not touch the network.
  EXPECT_EQ(network_.stats().link_bits, 0);
}

TEST_F(PoolTest, ExplicitPlacementIsHonored) {
  const ProcessId a = runtime_.Spawn(0, std::make_unique<Recorder>());
  const ProcessId b = runtime_.Spawn(3, std::make_unique<Recorder>());
  EXPECT_EQ(runtime_.PeOf(a), 0);
  EXPECT_EQ(runtime_.PeOf(b), 3);
}

TEST_F(PoolTest, BiggerMailTakesLongerOnTheWire) {
  class SizedGreeter : public Process {
   public:
    SizedGreeter(ProcessId peer, int64_t bits) : peer_(peer), bits_(bits) {}
    void OnStart() override { SendMail(peer_, "m", {}, bits_); }
    void OnMail(const Mail&) override {}
   private:
    ProcessId peer_;
    int64_t bits_;
  };
  auto rec1 = std::make_unique<Recorder>();
  Recorder* r1 = rec1.get();
  const ProcessId p1 = runtime_.Spawn(3, std::move(rec1));
  runtime_.Spawn(0, std::make_unique<SizedGreeter>(p1, 256));
  sim_.Run();
  const sim::SimTime small_arrival = r1->times.at(0);

  sim::Simulator sim2;
  net::Network net2(&sim2, net::Topology::Mesh(2, 2));
  Runtime rt2(&sim2, &net2);
  auto rec2 = std::make_unique<Recorder>();
  Recorder* r2 = rec2.get();
  const ProcessId p2 = rt2.Spawn(3, std::move(rec2));
  rt2.Spawn(0, std::make_unique<SizedGreeter>(p2, 256 * 64));
  sim2.Run();
  EXPECT_GT(r2->times.at(0), small_arrival);
}

TEST_F(PoolTest, CrashPeKillsEveryProcessOnThatPeOnly) {
  auto a = std::make_unique<Recorder>();
  Recorder* survivor = a.get();
  const ProcessId on_pe2 = runtime_.Spawn(2, std::move(a));
  const ProcessId victim1 = runtime_.Spawn(1, std::make_unique<Recorder>());
  const ProcessId victim2 = runtime_.Spawn(1, std::make_unique<Recorder>());
  sim_.Run();

  EXPECT_EQ(runtime_.CrashPe(1), 2u);
  EXPECT_FALSE(runtime_.IsAlive(victim1));
  EXPECT_FALSE(runtime_.IsAlive(victim2));
  EXPECT_TRUE(runtime_.IsAlive(on_pe2));
  EXPECT_EQ(runtime_.pe_crashes(), 1u);

  // Mail addressed to the wreckage is dropped, not delivered; the
  // survivor still receives.
  runtime_.Spawn(0, std::make_unique<Greeter>(victim1));
  runtime_.Spawn(0, std::make_unique<Greeter>(on_pe2));
  sim_.Run();
  EXPECT_EQ(survivor->kinds.size(), 1u);
}

TEST_F(PoolTest, QueuedSpawnOfKilledProcessNeverStarts) {
  /// OnStart burns 1 ms, so the second spawn on the same PE queues behind
  /// the first; killing it while queued must drop its OnStart (it used to
  /// run on the destroyed process).
  class SlowStarter : public Process {
   public:
    explicit SlowStarter(int* starts) : starts_(starts) {}
    void OnStart() override {
      ChargeCpu(1 * sim::kNanosPerMilli);
      ++*starts_;
    }
    void OnMail(const Mail&) override {}

   private:
    int* starts_;
  };
  int starts = 0;
  runtime_.Spawn(0, std::make_unique<SlowStarter>(&starts));
  const ProcessId queued =
      runtime_.Spawn(0, std::make_unique<SlowStarter>(&starts));
  sim_.Schedule(10, [this, queued]() { runtime_.Kill(queued); });
  sim_.Run();
  EXPECT_EQ(starts, 1);
  EXPECT_FALSE(runtime_.IsAlive(queued));
}

// ------------------------------------------------- Ownership checker

/// Captures ownership violations instead of aborting, restoring the
/// previous handler on destruction.
class ViolationCapture {
 public:
  ViolationCapture() {
    prev_ = internal_owned::SetOwnershipViolationHandler(&Record);
    messages().clear();
  }
  ~ViolationCapture() { internal_owned::SetOwnershipViolationHandler(prev_); }

  static std::vector<std::string>& messages() {
    static std::vector<std::string> m;
    return m;
  }

 private:
  static void Record(const std::string& message) {
    messages().push_back(message);
  }
  internal_owned::ViolationHandler prev_;
};

/// Holds an Owned counter and bumps it from its own handlers.
class StatefulProcess : public Process {
 public:
  std::string debug_name() const override { return "stateful"; }
  void OnStart() override { ++*counter_; }
  void OnMail(const Mail&) override { ++*counter_; }
  int value() const { return *counter_; }  // Control-plane read.
  Owned<int>& counter() { return counter_; }

 private:
  Owned<int> counter_;
};

/// Reaches into another process's Owned state from its own handler — the
/// POOL-X shared-memory violation the checker exists to catch.
class Intruder : public Process {
 public:
  explicit Intruder(StatefulProcess* victim) : victim_(victim) {}
  std::string debug_name() const override { return "intruder"; }
  void OnStart() override { touched_value_ = *victim_->counter(); }
  void OnMail(const Mail&) override {}

 private:
  StatefulProcess* victim_;
  int touched_value_ = 0;
};

TEST_F(PoolTest, OwnedStateAllowsOwnerAndControlPlane) {
  ViolationCapture capture;
  auto process = std::make_unique<StatefulProcess>();
  StatefulProcess* raw = process.get();
  const ProcessId pid = runtime_.Spawn(0, std::move(process));
  runtime_.Spawn(1, std::make_unique<Greeter>(pid));
  sim_.Run();
  // OnStart + one mail, each from the owner's handler; the read below is
  // control-plane (no handler running) — all allowed.
  EXPECT_EQ(raw->value(), 2);
  EXPECT_TRUE(ViolationCapture::messages().empty());
  EXPECT_EQ(raw->counter().owner(), pid);
}

TEST_F(PoolTest, CrossProcessAccessIsCaught) {
  ViolationCapture capture;
  auto victim = std::make_unique<StatefulProcess>();
  StatefulProcess* raw = victim.get();
  runtime_.Spawn(0, std::move(victim));
  sim_.Run();  // Victim's OnStart binds the counter to it.
  runtime_.Spawn(1, std::make_unique<Intruder>(raw));
  sim_.Run();  // Intruder's OnStart reads the victim's counter.
  ASSERT_EQ(ViolationCapture::messages().size(), 1u);
  const std::string& message = ViolationCapture::messages()[0];
  // The diagnostic names both processes.
  EXPECT_NE(message.find("stateful"), std::string::npos) << message;
  EXPECT_NE(message.find("intruder"), std::string::npos) << message;
}

TEST_F(PoolTest, OwnedBindsToFirstHandlerThatTouchesIt) {
  ViolationCapture capture;
  auto victim = std::make_unique<StatefulProcess>();
  StatefulProcess* raw = victim.get();
  // The intruder's OnStart runs before any victim handler ever touched
  // the counter, so the intruder (wrongly but silently) becomes the
  // owner — and the victim's own OnStart then trips the check. Spawn
  // order decides because handlers run in spawn order at t=0.
  runtime_.Spawn(1, std::make_unique<Intruder>(raw));
  runtime_.Spawn(0, std::move(victim));
  sim_.Run();
  EXPECT_EQ(ViolationCapture::messages().size(), 1u);
}

/// Kills itself inside its own handler, then touches another process's
/// state from the same (now orphaned) frame.
class SelfKiller : public Process {
 public:
  explicit SelfKiller(StatefulProcess* victim) : victim_(victim) {}
  std::string debug_name() const override { return "self-killer"; }
  void OnStart() override {
    // Nothing of `this` may be touched after Kill: copy what is needed.
    Owned<int>& counter = victim_->counter();
    runtime()->Kill(self());
    ++*counter;
  }
  void OnMail(const Mail&) override {}

 private:
  StatefulProcess* victim_;
};

TEST_F(PoolTest, ViolationFromAKilledProcessNamesItDead) {
  ViolationCapture capture;
  auto victim = std::make_unique<StatefulProcess>();
  StatefulProcess* raw = victim.get();
  runtime_.Spawn(0, std::move(victim));
  sim_.Run();
  const ProcessId killer =
      runtime_.Spawn(1, std::make_unique<SelfKiller>(raw));
  sim_.Run();
  EXPECT_FALSE(runtime_.IsAlive(killer));
  ASSERT_EQ(ViolationCapture::messages().size(), 1u);
  const std::string& message = ViolationCapture::messages()[0];
  EXPECT_NE(message.find("(stateful)"), std::string::npos) << message;
  EXPECT_NE(message.find("process " + std::to_string(killer) +
                         " (dead-process)"),
            std::string::npos)
      << message;
  EXPECT_EQ(message.find("self-killer"), std::string::npos) << message;
}

// ---------------------------------------------------------- Retransmission

constexpr sim::SimTime kMs = sim::kNanosPerMilli;

/// Arms a RetryTimer on start; at each firing either retransmits (counted)
/// or records exhaustion. `progress_after` > 0 reports window progress
/// after that many retransmissions; `keep_last` re-arms even once the
/// budget is spent (the exhaustion firing then arrives).
class TimerProbe : public Process {
 public:
  TimerProbe(RetryPolicy policy, bool keep_last, int progress_after = 0)
      : policy_(policy), keep_last_(keep_last),
        progress_after_(progress_after) {}
  void OnStart() override { timer_.Arm(this, policy_, "tick"); }
  void OnMail(const Mail&) override {
    firings.push_back(runtime()->simulator()->now());
    if (!timer_.Fire()) {
      ++exhaustions;
      return;
    }
    ++retransmissions;
    if (retransmissions == progress_after_) timer_.Progress();
    if (keep_last_ || !timer_.spent()) timer_.Rearm();
  }
  std::vector<sim::SimTime> firings;
  int retransmissions = 0;
  int exhaustions = 0;

 private:
  RetryPolicy policy_;
  bool keep_last_;
  int progress_after_;
  RetryTimer timer_;
};

/// Sends one request through a PendingRpcTable, retransmitting on every
/// timeout, and settles it on the server's reply.
class RpcClient : public Process {
 public:
  RpcClient(ProcessId server, RetryPolicy policy)
      : server_(server), policy_(policy) {}
  void OnStart() override {
    PendingRpc rpc;
    rpc.kind = "req";
    rpc.size_bits = 256;
    if (through_table) {
      rpcs_.Send(1, std::move(rpc), policy_, server_);
    } else {
      SendMail(server_, "req", {});
    }
  }
  void OnMail(const Mail& mail) override {
    if (mail.kind == "reply") {
      settled = !through_table || rpcs_.Settle(1);
      return;
    }
    auto [id, rpc] = rpcs_.OnTimeout(mail);
    if (rpc == nullptr) return;
    if (!rpc->timer.Fire()) {
      rpcs_.Settle(id);
      exhausted_at = runtime()->simulator()->now();
      return;
    }
    rpcs_.Resend(*rpc, server_);
  }
  bool through_table = true;
  bool settled = false;
  sim::SimTime exhausted_at = -1;

 private:
  ProcessId server_;
  RetryPolicy policy_;
  PendingRpcTable rpcs_{this, "timeout"};
};

/// Answers every request.
class Echo : public Process {
 public:
  void OnMail(const Mail& mail) override { SendMail(mail.from, "reply", {}); }
};

TEST(RetryPolicyTest, DelaysDoubleFromFirstToCap) {
  const RetryPolicy policy{100, 800, 5};
  std::vector<sim::SimTime> delays = {policy.first_ns};
  while (delays.size() < 6) delays.push_back(policy.Next(delays.back()));
  EXPECT_EQ(delays, (std::vector<sim::SimTime>{100, 200, 400, 800, 800, 800}));
  // A fixed period is a policy whose cap is its first delay.
  const RetryPolicy fixed = RetryPolicy::Every(300);
  EXPECT_EQ(fixed.Next(fixed.first_ns), 300);
  EXPECT_EQ(fixed.budget, RetryPolicy::kUnbounded);
}

TEST(RetryPolicyTest, DedupHorizonCoversTheDecisionWindow) {
  // The default machine (10 s first delay and cap, 5 retransmissions)
  // with the 4 extra of decision-phase RPCs: 10 sends plus one gap, each
  // 10 s, doubled — the OFMs' dedup retention of 220 s.
  const RetryPolicy rpc{10 * sim::kNanosPerSecond, 10 * sim::kNanosPerSecond,
                        5};
  EXPECT_EQ(rpc.Extended(4).DedupHorizonNs(), 220 * sim::kNanosPerSecond);
}

TEST_F(PoolTest, RetryTimerFiresOnTheBackoffSchedule) {
  auto probe = std::make_unique<TimerProbe>(
      RetryPolicy{1 * kMs, 8 * kMs, 5}, /*keep_last=*/true);
  TimerProbe* raw = probe.get();
  runtime_.Spawn(1, std::move(probe));
  sim_.Run();
  // Gaps 1, 2, 4, 8, 8 ms, then the exhaustion firing after another 8.
  EXPECT_EQ(raw->firings, (std::vector<sim::SimTime>{
                              1 * kMs, 3 * kMs, 7 * kMs, 15 * kMs, 23 * kMs,
                              31 * kMs}));
  EXPECT_EQ(raw->retransmissions, 5);
  EXPECT_EQ(raw->exhaustions, 1);
}

TEST_F(PoolTest, RpcExhaustsAfterBudgetRetransmissions) {
  // An RPC configured with 6 attempts (rpc_attempts counts sends) has a
  // budget of 5 retransmissions: 6 sends, then the 6th firing exhausts.
  auto server = std::make_unique<Recorder>();  // Never answers.
  Recorder* rec = server.get();
  const ProcessId sid = runtime_.Spawn(3, std::move(server));
  auto client =
      std::make_unique<RpcClient>(sid, RetryPolicy{1 * kMs, 2 * kMs, 6 - 1});
  RpcClient* raw = client.get();
  runtime_.Spawn(0, std::move(client));
  sim_.Run();
  EXPECT_EQ(rec->kinds.size(), 6u);
  // Firings at 1, 3, 5, 7, 9 ms retransmit; the one at 11 ms exhausts.
  EXPECT_EQ(raw->exhausted_at, 11 * kMs);
  EXPECT_FALSE(raw->settled);
}

TEST_F(PoolTest, StreamFailsOnItsEleventhFiring) {
  // A stream's budget of 10 counts firings without window progress: ten
  // retransmission windows, and the 11th firing fails the stream.
  auto probe = std::make_unique<TimerProbe>(
      RetryPolicy{250 * kMs, 2000 * kMs, 10}, /*keep_last=*/true);
  TimerProbe* raw = probe.get();
  runtime_.Spawn(0, std::move(probe));
  sim_.Run();
  EXPECT_EQ(raw->firings.size(), 11u);
  EXPECT_EQ(raw->retransmissions, 10);
  EXPECT_EQ(raw->exhaustions, 1);
}

TEST_F(PoolTest, ReplyResendsItsBudgetAndLeavesNoTimer) {
  // A consumer reply resends 240 times at a fixed period; the last resend
  // does not re-arm, so no exhaustion firing follows.
  auto probe = std::make_unique<TimerProbe>(RetryPolicy::Every(200 * kMs, 240),
                                            /*keep_last=*/false);
  TimerProbe* raw = probe.get();
  runtime_.Spawn(0, std::move(probe));
  sim_.Run();
  EXPECT_EQ(raw->retransmissions, 240);
  EXPECT_EQ(raw->firings.size(), 240u);
  EXPECT_EQ(raw->exhaustions, 0);
  EXPECT_EQ(raw->firings.back(), 240 * 200 * kMs);
}

TEST_F(PoolTest, ProgressRestoresBudgetAndFirstDelay) {
  // Progress after the 2nd retransmission: the pending firing stays put,
  // the schedule after it starts over (2, 4, 8 ms, then the 10 ms cap)
  // and the full budget of 3 is available again.
  auto probe = std::make_unique<TimerProbe>(RetryPolicy{1 * kMs, 10 * kMs, 3},
                                            /*keep_last=*/true,
                                            /*progress_after=*/2);
  TimerProbe* raw = probe.get();
  runtime_.Spawn(0, std::move(probe));
  sim_.Run();
  EXPECT_EQ(raw->firings, (std::vector<sim::SimTime>{
                              1 * kMs, 3 * kMs, 5 * kMs, 9 * kMs, 17 * kMs,
                              27 * kMs}));
  EXPECT_EQ(raw->retransmissions, 5);
  EXPECT_EQ(raw->exhaustions, 1);
}

/// Runs one request/reply exchange on a fresh machine and returns the
/// instant its event queue drained.
sim::SimTime RunEcho(bool through_table, sim::Simulator* sim) {
  net::Network network(sim, net::Topology::Mesh(2, 2));
  Runtime runtime(sim, &network);
  const ProcessId sid = runtime.Spawn(3, std::make_unique<Echo>());
  auto client = std::make_unique<RpcClient>(
      sid, RetryPolicy{10 * sim::kNanosPerSecond, 10 * sim::kNanosPerSecond,
                       5});
  client->through_table = through_table;
  RpcClient* raw = client.get();
  runtime.Spawn(0, std::move(client));
  sim->Run();
  EXPECT_TRUE(raw->settled);
  return sim->now();
}

TEST(RetransmitTest, SettledRequestLeavesNoPendingEvent) {
  sim::Simulator plain;
  const sim::SimTime drained_plain = RunEcho(/*through_table=*/false, &plain);
  sim::Simulator timed;
  const sim::SimTime drained_timed = RunEcho(/*through_table=*/true, &timed);
  // The reply cancelled the 10 s timer: its tombstone was consumed, and
  // the queue drained at the same instant as without any timer.
  EXPECT_EQ(timed.tombstones_pending(), 0u);
  EXPECT_EQ(timed.events_cancelled(), 1u);
  EXPECT_EQ(drained_timed, drained_plain);
  EXPECT_LT(drained_timed, sim::kNanosPerSecond);
}

TEST_F(PoolTest, CancelledTimerNeverFires) {
  class Canceller : public Process {
   public:
    void OnStart() override {
      timer_.Arm(this, RetryPolicy::Every(1 * kMs), "tick");
      timer_.Cancel();
      armed_after_cancel = timer_.armed();
    }
    void OnMail(const Mail&) override { ++firings; }
    bool armed_after_cancel = true;
    int firings = 0;

   private:
    RetryTimer timer_;
  };
  auto canceller = std::make_unique<Canceller>();
  Canceller* raw = canceller.get();
  runtime_.Spawn(0, std::move(canceller));
  sim_.Run();
  EXPECT_FALSE(raw->armed_after_cancel);
  EXPECT_EQ(raw->firings, 0);
  EXPECT_EQ(sim_.tombstones_pending(), 0u);
}

}  // namespace
}  // namespace prisma::pool
