#include "simt/trace.h"

#include <tuple>

namespace regla::simt {

bool slice_before(const TaggedCycles& a, const TaggedCycles& b) {
  // Total key: (rank, panel, tag). The old comparator special-cased
  // panel < 0 with an OR of both sides' tags, which made cmp(a,b) and
  // cmp(b,a) simultaneously true (e.g. a panel-indexed load vs the panel -1
  // load) — undefined behavior in std::stable_sort.
  const auto key = [](const TaggedCycles& s) {
    // load/store carry panel -1; put load first, store last.
    const int rank = s.panel >= 0          ? 1
                     : s.tag == OpTag::store ? 2
                                             : 0;
    return std::make_tuple(rank, s.panel, static_cast<int>(s.tag));
  };
  return key(a) < key(b);
}

}  // namespace regla::simt
