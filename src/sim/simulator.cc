#include "sim/simulator.h"

#include <algorithm>

#include "common/logging.h"

namespace prisma::sim {

EventId Simulator::ScheduleAt(SimTime time, std::function<void()> fn) {
  PRISMA_CHECK(time >= now_) << "cannot schedule into the past: " << time
                             << " < " << now_;
  if (free_slots_.empty()) {
    PRISMA_CHECK(slots_.size() < UINT32_MAX) << "event slab exhausted";
    free_slots_.push_back(static_cast<uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot].fn = std::move(fn);
  queue_.push_back(Event{time, next_seq_++, slot});
  std::push_heap(queue_.begin(), queue_.end(), EventLater());
  return static_cast<EventId>(slots_[slot].generation) << 32 | slot;
}

Simulator::Event Simulator::PopNext() {
  std::pop_heap(queue_.begin(), queue_.end(), EventLater());
  const Event ev = queue_.back();
  queue_.pop_back();
  return ev;
}

std::function<void()> Simulator::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  if (s.cancelled) {
    s.cancelled = false;
    --tombstones_;
    ++events_cancelled_;
  }
  if (++s.generation == 0) s.generation = 1;  // 0 stays unissued.
  free_slots_.push_back(slot);
  return fn;
}

bool Simulator::Step() {
  while (!queue_.empty()) {
    const Event ev = PopNext();
    if (slots_[ev.slot].cancelled) {
      // Skipped without advancing the clock.
      Release(ev.slot);
      continue;
    }
    // Released before running, so the event cancelling itself (or any
    // handle to it cancelled later) is a stale no-op.
    std::function<void()> fn = Release(ev.slot);
    now_ = ev.time;
    ++events_executed_;
    fn();
    return true;
  }
  return false;
}

uint64_t Simulator::Run(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && Step()) ++n;
  return n;
}

void Simulator::PurgeCancelledFront() {
  while (!queue_.empty() && slots_[queue_.front().slot].cancelled) {
    Release(PopNext().slot);
  }
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  uint64_t n = 0;
  while (true) {
    PurgeCancelledFront();
    if (queue_.empty() || queue_.front().time > deadline) break;
    if (Step()) ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace prisma::sim
