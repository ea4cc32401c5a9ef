// gfloat8 / mask8: the 8-wide device scalar of a replay group.
//
// A replay group (simt/group_ctx.h, DESIGN.md §13) runs one device thread of
// kGroupWidth blocks at once, element g of every value belonging to the
// group's g-th block. Each operation is the gfloat operation applied per
// element — the same IEEE op, the same fast-math 22-bit rounding of divides
// and square roots, and gfma's a*b+c as a multiply then an add, never
// contracted (the build is ISO C++, so GCC does not fuse it) — so every
// element is bitwise what the scalar lane computes. The loops are fixed
// width, for the compiler to vectorize.
//
// Nothing here counts: groups run only uninstrumented (replayed) blocks.
// Comparisons yield a mask8, and a value-dependent choice becomes
// select(mask, a, b), so each element still takes its own block's branch.
#pragma once

#include <cmath>

#include "simt/gfloat.h"

namespace regla::simt {

/// Blocks per replay group; a constant, not a tuning knob (DESIGN.md §13).
inline constexpr int kGroupWidth = 8;

/// Per-element truth of a comparison.
struct mask8 {
  bool m[kGroupWidth];
};

class gfloat8 {
 public:
  gfloat8() = default;
  gfloat8(float x) {  // NOLINT implicit by design: broadcast, as gfloat's
    for (float& e : v_) e = x;
  }

  float operator[](int g) const { return v_[g]; }
  float& operator[](int g) { return v_[g]; }

  friend gfloat8 operator+(gfloat8 a, gfloat8 b) {
    for (int g = 0; g < kGroupWidth; ++g) a.v_[g] = a.v_[g] + b.v_[g];
    return a;
  }
  friend gfloat8 operator-(gfloat8 a, gfloat8 b) {
    for (int g = 0; g < kGroupWidth; ++g) a.v_[g] = a.v_[g] - b.v_[g];
    return a;
  }
  friend gfloat8 operator*(gfloat8 a, gfloat8 b) {
    for (int g = 0; g < kGroupWidth; ++g) a.v_[g] = a.v_[g] * b.v_[g];
    return a;
  }
  friend gfloat8 operator/(gfloat8 a, gfloat8 b) {
    for (int g = 0; g < kGroupWidth; ++g) a.v_[g] = a.v_[g] / b.v_[g];
    return a.fast_math_rounded();
  }
  gfloat8 operator-() const {
    gfloat8 r;
    for (int g = 0; g < kGroupWidth; ++g) r.v_[g] = -v_[g];
    return r;
  }

  friend mask8 operator==(gfloat8 a, gfloat8 b) {
    mask8 r;
    for (int g = 0; g < kGroupWidth; ++g) r.m[g] = a.v_[g] == b.v_[g];
    return r;
  }
  friend mask8 operator!=(gfloat8 a, gfloat8 b) {
    mask8 r;
    for (int g = 0; g < kGroupWidth; ++g) r.m[g] = a.v_[g] != b.v_[g];
    return r;
  }
  friend mask8 operator>(gfloat8 a, gfloat8 b) {
    mask8 r;
    for (int g = 0; g < kGroupWidth; ++g) r.m[g] = a.v_[g] > b.v_[g];
    return r;
  }

  /// Element g is a where m is set, b elsewhere.
  friend gfloat8 select(mask8 m, gfloat8 a, gfloat8 b) {
    for (int g = 0; g < kGroupWidth; ++g) a.v_[g] = m.m[g] ? a.v_[g] : b.v_[g];
    return a;
  }

  friend gfloat8 gfma(gfloat8 a, gfloat8 b, gfloat8 c) {
    for (int g = 0; g < kGroupWidth; ++g) a.v_[g] = a.v_[g] * b.v_[g] + c.v_[g];
    return a;
  }
  friend gfloat8 gsqrt(gfloat8 a) {
    for (int g = 0; g < kGroupWidth; ++g) a.v_[g] = std::sqrt(a.v_[g]);
    return a.fast_math_rounded();
  }

 private:
  /// gfloat's divide/sqrt rounding, per element.
  gfloat8 fast_math_rounded() const {
    if (!fast_math_enabled()) return *this;
    gfloat8 r;
    for (int g = 0; g < kGroupWidth; ++g)
      r.v_[g] = detail::round_to_22_bits(v_[g]);
    return r;
  }

  float v_[kGroupWidth]{};
};

}  // namespace regla::simt
