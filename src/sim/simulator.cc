#include "sim/simulator.h"

#include <algorithm>

#include "common/logging.h"

namespace prisma::sim {

EventId Simulator::ScheduleAt(SimTime time, std::function<void()> fn) {
  PRISMA_CHECK(time >= now_) << "cannot schedule into the past: " << time
                             << " < " << now_;
  const uint32_t slot = slots_.Add();
  slots_[slot].fn = std::move(fn);
  Push(Event{time, next_seq_++, slot});
  return static_cast<EventId>(slots_[slot].generation) << 32 | slot;
}

void Simulator::Push(const Event& ev) {
  size_t i = queue_.size();
  queue_.push_back(ev);
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(ev, queue_[parent])) break;
    queue_[i] = queue_[parent];
    i = parent;
  }
  queue_[i] = ev;
}

Simulator::Event Simulator::PopNext() {
  const Event top = queue_.front();
  const Event last = queue_.back();
  queue_.pop_back();
  const size_t n = queue_.size();
  if (n == 0) return top;
  // Sift the former last entry down from the root.
  size_t i = 0;
  while (true) {
    const size_t first = 4 * i + 1;
    if (first >= n) break;
    const size_t end = std::min(first + 4, n);
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(queue_[c], queue_[best])) best = c;
    }
    if (!Before(queue_[best], last)) break;
    queue_[i] = queue_[best];
    i = best;
  }
  queue_[i] = last;
  return top;
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
  slots_.Free(slot);
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
