// Umbrella header for the SIMT GPU simulator substrate.
//
// The simulator stands in for the paper's NVIDIA Quadro 6000 (GF100): it runs
// kernels functionally (real numbers, one stackless lane per device thread)
// and produces cycle-accurate-*style* timing from a mechanism-level cost
// model (issue throughput, bank conflicts, coalescing, occupancy, register
// spilling, structured DRAM latency). See DESIGN.md §1 and §3.
#pragma once

#include "simt/block_ctx.h"     // IWYU pragma: export
#include "simt/device_config.h" // IWYU pragma: export
#include "simt/engine.h"        // IWYU pragma: export
#include "simt/gfloat.h"        // IWYU pragma: export
#include "simt/global_mem.h"    // IWYU pragma: export
#include "simt/group_ctx.h"     // IWYU pragma: export
#include "simt/lane.h"          // IWYU pragma: export
#include "simt/occupancy.h"     // IWYU pragma: export
#include "simt/reg_tile.h"      // IWYU pragma: export
#include "simt/shared_mem.h"    // IWYU pragma: export
#include "simt/timing.h"        // IWYU pragma: export
#include "simt/trace.h"         // IWYU pragma: export
#include "simt/wide.h"          // IWYU pragma: export
