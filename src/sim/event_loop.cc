#include "src/sim/event_loop.h"

#include <limits>

namespace pensieve {

double EventQueue::NextTime() const {
  return heap_.empty() ? std::numeric_limits<double>::infinity()
                       : heap_.top().time;
}

}  // namespace pensieve
