#include "fleet/router.h"

namespace regla::fleet {

int pick(const std::vector<RouteCandidate>& candidates) {
  if (candidates.empty()) return -1;
  int best = 0;
  for (int i = 1; i < static_cast<int>(candidates.size()); ++i) {
    const RouteCandidate& c = candidates[i];
    const RouteCandidate& b = candidates[best];
    const bool better =
        // A closed circuit always beats an open one, whatever the load.
        (!c.circuit_open && b.circuit_open) ||
        (c.circuit_open == b.circuit_open &&
         (c.load < b.load ||
          (c.load == b.load && c.last_routed < b.last_routed)));
    if (better) best = i;
  }
  return best;
}

}  // namespace regla::fleet
