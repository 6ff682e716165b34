#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace prisma::sim {
namespace {

TEST(SimulatorTest, StartsAtZeroWithNoEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, TiesBreakBySchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(5, [&] {
    times.push_back(sim.now());
    sim.Schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{5, 10}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(20, [&] { ++fired; });
  sim.Schedule(30, [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.RunUntil(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(SimulatorTest, RunWithEventCap) {
  Simulator sim;
  int fired = 0;
  // A self-perpetuating event chain; the cap must stop it.
  std::function<void()> tick = [&] {
    ++fired;
    sim.Schedule(1, tick);
  };
  sim.Schedule(1, tick);
  EXPECT_EQ(sim.Run(100), 100u);
  EXPECT_EQ(fired, 100);
}

TEST(SimulatorTest, CancelledEventDoesNotRun) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(20, [&] { ++fired; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20);
}

TEST(SimulatorTest, CancelledTailDoesNotAdvanceClock) {
  // A late timer that gets cancelled must not drag the clock (the whole
  // point of cancellable timeouts: makespans stay meaningful).
  Simulator sim;
  const EventId timeout = sim.Schedule(1'000'000, [] {});
  sim.Schedule(5, [&] { sim.Cancel(timeout); });
  sim.Run();
  EXPECT_EQ(sim.now(), 5);
}

TEST(SimulatorTest, CancelAfterExecutionIsHarmless) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.Schedule(1, [&] { ++fired; });
  sim.Run();
  sim.Cancel(id);  // Already ran; must not affect future events.
  EXPECT_EQ(sim.tombstones_pending(), 0u);  // Nothing left to consume.
  sim.Schedule(1, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_cancelled(), 0u);
}

TEST(SimulatorTest, StaleHandleDoesNotCancelReusedSlot) {
  // The second event takes over the first one's slot; the first handle
  // carries the old generation and must not reach it.
  Simulator sim;
  int fired = 0;
  const EventId old_id = sim.Schedule(1, [&] { ++fired; });
  sim.Run();
  const EventId new_id = sim.Schedule(1, [&] { ++fired; });
  EXPECT_NE(old_id, new_id);
  sim.Cancel(old_id);
  EXPECT_EQ(sim.tombstones_pending(), 0u);
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_cancelled(), 0u);
}

TEST(SimulatorTest, EventCancellingItselfLeavesNoTombstone) {
  Simulator sim;
  EventId self = 0;
  self = sim.Schedule(1, [&] { sim.Cancel(self); });
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.tombstones_pending(), 0u);
}

TEST(SimulatorTest, CancelOfZeroIsANoOp) {
  // Processes keep `timer = 0` for "no timer armed"; cancelling it must
  // never hit a live event, not even the very first one scheduled.
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] { ++fired; });
  sim.Cancel(0);
  EXPECT_EQ(sim.cancel_requests(), 1u);
  EXPECT_EQ(sim.tombstones_pending(), 0u);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_cancelled(), 0u);
}

TEST(SimulatorTest, RunUntilSkipsCancelledFront) {
  Simulator sim;
  int fired = 0;
  const EventId early = sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(50, [&] { ++fired; });
  sim.Schedule(99999, [&] { ++fired; });
  sim.Cancel(early);
  EXPECT_EQ(sim.RunUntil(60), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 60);
}

TEST(SimulatorTest, TiesBreakBySequenceAcrossInterleavedSchedules) {
  // Same-time events fire in scheduling order even when they are created
  // from inside other events — the (time, seq) key, not heap luck.
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] {
    order.push_back(0);
    sim.Schedule(10, [&] { order.push_back(3); });  // t=20, seq later.
  });
  sim.Schedule(20, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTest, EventAccountingTracksSchedulesAndCancels) {
  Simulator sim;
  EXPECT_EQ(sim.events_scheduled(), 0u);
  const EventId a = sim.Schedule(10, [] {});
  sim.Schedule(20, [] {});
  EXPECT_EQ(sim.events_scheduled(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.cancel_requests(), 1u);
  EXPECT_EQ(sim.tombstones_pending(), 1u);
  EXPECT_EQ(sim.events_cancelled(), 0u);  // Tombstone not yet consumed.
  sim.Run();
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.tombstones_pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, CancelOfUnissuedIdIsRejected) {
  // Ids the simulator never handed out must not poison future events.
  Simulator sim;
  sim.Cancel(9999);
  int fired = 0;
  for (int i = 0; i < 3; ++i) sim.Schedule(i + 1, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.events_cancelled(), 0u);
}

TEST(SimulatorTest, DoubleCancelConsumesOneTombstone) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.Schedule(10, [&] { ++fired; });
  sim.Cancel(id);
  sim.Cancel(id);  // Idempotent: the slot is already marked cancelled.
  EXPECT_EQ(sim.cancel_requests(), 2u);
  EXPECT_EQ(sim.tombstones_pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.tombstones_pending(), 0u);
}

TEST(SimulatorTest, IdenticalRunsProduceIdenticalSchedules) {
  // The determinism bedrock: two simulators fed the same event program
  // agree on every firing time.
  auto run = [] {
    Simulator sim;
    std::vector<SimTime> times;
    for (int i = 0; i < 20; ++i) {
      sim.Schedule((i * 7) % 13, [&times, &sim] {
        times.push_back(sim.now());
        sim.Schedule(3, [&times, &sim] { times.push_back(sim.now()); });
      });
    }
    sim.Run();
    return times;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.Schedule(7, [&] {
    sim.Schedule(0, [&] { seen = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, 7);
}

// ------------------------------------------------ Heap-order differential

/// Reference event queue: an ordered set on (time, seq), never-reused
/// handles and the documented cancel semantics, with no heap and no slots.
class ReferenceSim {
 public:
  SimTime now() const { return now_; }

  EventId ScheduleAt(SimTime time, std::function<void()> fn) {
    const uint64_t seq = next_seq_++;
    queue_.insert({time, seq});
    events_[seq] = Pending{std::move(fn), false};
    return seq + 1;  // 0 is never issued.
  }
  EventId Schedule(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  void Cancel(EventId id) {
    auto it = id == 0 ? events_.end() : events_.find(id - 1);
    if (it == events_.end() || it->second.cancelled) return;
    it->second.cancelled = true;
    ++tombstones_;
  }

  bool Step() {
    while (!queue_.empty()) {
      const auto [time, seq] = *queue_.begin();
      queue_.erase(queue_.begin());
      Pending event = std::move(events_[seq]);
      events_.erase(seq);
      if (event.cancelled) {
        --tombstones_;
        ++events_cancelled_;
        continue;
      }
      now_ = time;
      event.fn();
      return true;
    }
    return false;
  }

  uint64_t Run(uint64_t max_events) {
    uint64_t n = 0;
    while (n < max_events && Step()) ++n;
    return n;
  }

  uint64_t RunUntil(SimTime deadline) {
    uint64_t n = 0;
    while (true) {
      while (!queue_.empty() && events_[queue_.begin()->second].cancelled) {
        events_.erase(queue_.begin()->second);
        queue_.erase(queue_.begin());
        --tombstones_;
        ++events_cancelled_;
      }
      if (queue_.empty() || queue_.begin()->first > deadline) break;
      if (Step()) ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  uint64_t events_scheduled() const { return next_seq_; }
  uint64_t events_cancelled() const { return events_cancelled_; }
  size_t tombstones_pending() const { return tombstones_; }
  size_t pending() const { return queue_.size(); }

 private:
  struct Pending {
    std::function<void()> fn;
    bool cancelled = false;
  };
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_cancelled_ = 0;
  size_t tombstones_ = 0;
  std::set<std::pair<SimTime, uint64_t>> queue_;
  std::map<uint64_t, Pending> events_;
};

/// Drives a simulator with a seeded random program of schedules (many at
/// the same instant), cancels (of pending, run, cancelled and own
/// handles), steps, runs and RunUntil deadlines, and logs what happened.
/// Events draw their own follow-ups from the shared Rng, so the logs of
/// two simulators agree only if they run events in the same order.
template <typename Sim>
std::vector<std::string> DriveRandomProgram(uint64_t seed) {
  Sim sim;
  Rng rng(seed);
  std::vector<EventId> handles;
  std::vector<std::string> log;
  std::function<void(int)> fire;
  auto schedule = [&](bool absolute) {
    const int label = static_cast<int>(handles.size());
    // Few distinct delays, so same-instant ties are common.
    const SimTime delay = static_cast<SimTime>(rng.Uniform(4)) * 10;
    auto fn = [&, label] { fire(label); };
    handles.push_back(absolute ? sim.ScheduleAt(sim.now() + delay, fn)
                               : sim.Schedule(delay, fn));
  };
  auto cancel_random = [&] {
    if (!handles.empty()) sim.Cancel(handles[rng.Uniform(handles.size())]);
  };
  fire = [&](int label) {
    log.push_back("run " + std::to_string(label) + " @" +
                  std::to_string(sim.now()));
    const uint64_t action = rng.Uniform(6);
    if (action == 0) sim.Cancel(handles[label]);  // Stale: already running.
    if (action == 1) cancel_random();
    if (action >= 2 && action <= 3 && handles.size() < 3000) {
      schedule(action == 3);
    }
  };
  for (int op = 0; op < 400; ++op) {
    switch (rng.Uniform(8)) {
      case 0:
      case 1:
      case 2:
        schedule(false);
        break;
      case 3:
        schedule(true);
        break;
      case 4:
        cancel_random();
        break;
      case 5:
        log.push_back("step " + std::to_string(sim.Step()));
        break;
      case 6:
        log.push_back("run " + std::to_string(sim.Run(rng.Uniform(5))));
        break;
      case 7:
        log.push_back("until " + std::to_string(sim.RunUntil(
                                     sim.now() + rng.Uniform(25))));
        break;
    }
    log.push_back("now " + std::to_string(sim.now()) + " scheduled " +
                  std::to_string(sim.events_scheduled()) + " cancelled " +
                  std::to_string(sim.events_cancelled()) + " tombstones " +
                  std::to_string(sim.tombstones_pending()) + " pending " +
                  std::to_string(sim.pending()));
  }
  log.push_back("drain " + std::to_string(sim.Run(UINT64_MAX)));
  log.push_back("now " + std::to_string(sim.now()) + " cancelled " +
                std::to_string(sim.events_cancelled()) + " tombstones " +
                std::to_string(sim.tombstones_pending()));
  return log;
}

TEST(SimulatorTest, HeapOrderMatchesAnOrderedSetModel) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<std::string> got = DriveRandomProgram<Simulator>(seed);
    const std::vector<std::string> want =
        DriveRandomProgram<ReferenceSim>(seed);
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      ASSERT_EQ(got[i], want[i]) << "at log line " << i;
    }
    ASSERT_EQ(got.size(), want.size());
  }
}

}  // namespace
}  // namespace prisma::sim
