#ifndef PRISMA_SIM_SIMULATOR_H_
#define PRISMA_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/slab.h"

namespace prisma::sim {

/// Virtual time in nanoseconds since simulation start.
using SimTime = int64_t;

/// Handle of a scheduled event, usable with Simulator::Cancel:
/// `generation << 32 | slot`. Generations start at 1, so 0 never names an
/// event and a zero-initialized handle is always safe to cancel.
using EventId = uint64_t;

constexpr SimTime kNanosPerMicro = 1000;
constexpr SimTime kNanosPerMilli = 1000 * 1000;
constexpr SimTime kNanosPerSecond = 1000 * 1000 * 1000;

/// Deterministic discrete-event simulation driver.
///
/// The PRISMA multi-computer (PEs, links, disks, POOL-X processes) runs
/// entirely in virtual time on this engine: components schedule callbacks
/// at future instants and the simulator executes them in nondecreasing
/// time order, breaking ties by scheduling sequence so runs are exactly
/// reproducible.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  /// Returns a handle accepted by Cancel.
  EventId Schedule(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at the absolute virtual instant `time` (>= now()).
  EventId ScheduleAt(SimTime time, std::function<void()> fn);

  /// Cancels a pending event; a no-op if it already ran (or never
  /// existed). Cancelled events are skipped without advancing the clock
  /// to their instant when later events exist; an all-cancelled queue
  /// simply drains.
  void Cancel(EventId id) {
    ++cancel_requests_;
    const uint64_t index = id & 0xffffffffu;
    if (index >= slots_.size()) return;
    Slot& slot = slots_[index];
    // A mismatched generation is a handle to an event that already ran
    // (its slot was recycled) or one never issued.
    if (slot.generation != id >> 32 || slot.cancelled) return;
    slot.cancelled = true;
    ++tombstones_;
  }

  /// Executes the next pending event; returns false if none remain.
  bool Step();

  /// Runs until the event queue drains or `max_events` were executed.
  /// Returns the number of events executed.
  uint64_t Run(uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= deadline; pending later events remain queued.
  /// Advances now() to `deadline` even if the queue drains earlier.
  uint64_t RunUntil(SimTime deadline);

  /// Total events executed since construction.
  uint64_t events_executed() const { return events_executed_; }

  /// Total events ever scheduled (executed + pending + cancelled).
  uint64_t events_scheduled() const { return next_seq_; }

  /// Cancel calls made (including no-op cancels of already-run events).
  uint64_t cancel_requests() const { return cancel_requests_; }

  /// Events skipped because they were cancelled before their instant.
  uint64_t events_cancelled() const { return events_cancelled_; }

  /// Cancelled events still sitting in the queue as tombstones.
  size_t tombstones_pending() const { return tombstones_; }

  /// Number of pending events (cancelled-but-unpurged ones included).
  size_t pending() const { return queue_.size(); }

 private:
  /// Heap entry; the callback lives in slots_[slot].
  struct Event {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  /// Heap order: (time, seq). Sequence numbers are unique, so the order
  /// is total and any correct heap pops events in the same order.
  static bool Before(const Event& a, const Event& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }
  /// Storage of one pending event. A slot is recycled once its event runs
  /// or its tombstone is popped; the generation bump on release makes
  /// every handle to the old occupant stale.
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 1;  // 0 is never issued.
    bool cancelled = false;
  };

  /// 4-ary min-heap primitives over queue_ (children of i are 4i+1..4i+4):
  /// half the depth of a binary heap, and a node's children share one or
  /// two cache lines.
  void Push(const Event& ev);
  Event PopNext();
  /// Recycles `slot`, consuming its tombstone if it was cancelled, and
  /// returns its callback.
  std::function<void()> Release(uint32_t slot);
  /// Drops cancelled events sitting at the heap front.
  void PurgeCancelledFront();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t cancel_requests_ = 0;
  uint64_t events_cancelled_ = 0;
  size_t tombstones_ = 0;
  std::vector<Event> queue_;  // 4-ary min-heap ordered by Before.
  Slab<Slot> slots_;
};

}  // namespace prisma::sim

#endif  // PRISMA_SIM_SIMULATOR_H_
