// Execution order of a launch's per-phase breakdown. Device::launch exports
// the breakdown as phase slices nested under its engine.launch span on the
// obs trace timeline (obs/trace.h), laid out in this order.
#pragma once

#include "simt/engine.h"

namespace regla::simt {

/// Strict weak ordering over breakdown slices in natural execution order:
/// the panel -1 load slice first, panel slices ascending (ties by tag), the
/// panel -1 store slice last, any other panel -1 slice with the loads.
/// Exposed for the regression tests.
bool slice_before(const TaggedCycles& a, const TaggedCycles& b);

}  // namespace regla::simt
