#include "calibrate.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

namespace prisma::perfbench {

namespace {

// Keeps the kernel's result observable so it is never optimized away.
volatile uint64_t g_sink = 0;

uint64_t Kernel() {
  uint64_t x = 88172645463325252ULL;
  uint64_t sum = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  struct Event {
    uint64_t time;
    uint64_t seq;
    std::function<void()> fn;
  };
  auto later = [](const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> queue(later);
  std::unordered_map<uint64_t, std::string> table;
  std::map<uint64_t, uint64_t> ordered;
  for (uint64_t i = 0; i < 6000; ++i) {
    const uint64_t k = next();
    queue.push({k % 100000, i, [&sum, k] { sum += k >> 3; }});
    table[k % 4096] = std::to_string(k);
    ordered[k % 8192] += i;
    if (queue.size() > 64) {
      Event e = queue.top();
      queue.pop();
      e.fn();
    }
  }
  while (!queue.empty()) {
    Event e = queue.top();
    queue.pop();
    e.fn();
  }
  for (const auto& [k, v] : table) sum += v.size() + k;
  for (const auto& [k, v] : ordered) sum ^= v;
  return sum;
}

}  // namespace

double KernelUs() {
  const auto start = std::chrono::steady_clock::now();
  g_sink = g_sink + Kernel();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace prisma::perfbench
