// Fixture: a file on the stage-consumer surface (gdh/stage_consumer.h)
// that drains inbound channels by iterating an unordered container. The
// drain order becomes merge input order and ack order on the wire, so
// both loop forms must produce a D2 diagnostic.
#include <cstddef>
#include <unordered_set>

#include "gdh/stage_consumer.h"

namespace fixture {

class ChannelSweeper {
 public:
  void DrainAll() {
    for (size_t producer : ready_) {
      Drain(producer);
    }
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      Drain(*it);
    }
  }

 private:
  void Drain(size_t producer);
  std::unordered_set<size_t> ready_;
};

}  // namespace fixture
