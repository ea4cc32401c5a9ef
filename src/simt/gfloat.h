// gfloat / gcomplex: instrumented device scalars.
//
// Device kernels do arithmetic on gfloat instead of float. Every operation
// bumps the running thread's counters, so the simulator sees exactly the
// FLOPs, divides and square roots the kernel performs — no hand-maintained
// cost formulas in the kernels themselves. In fast-math mode, division and
// square root round their results to 22 mantissa bits, reproducing the
// accuracy of GF100's hardware reciprocal/sqrt that the paper uses
// (--use_fast_math).
#pragma once

#include <cmath>
#include <complex>
#include <cstring>

#include "simt/stats.h"

namespace regla::simt {

namespace detail {
/// Storage behind fast_math_enabled(); header-inline for the same reason as
/// stats.h's t_current_stats — the divide/sqrt hot paths read it per op.
inline thread_local bool t_fast_math = true;
}  // namespace detail

/// Set by the executor for the duration of a launch (fast-math on/off).
inline bool& fast_math_enabled() { return detail::t_fast_math; }

namespace detail {
/// Truncate a float to 22 mantissa bits (keep 22 of 23 explicit fraction
/// bits... GF100's fast functions are *accurate to* 22 bits, i.e. the last
/// bit or two of the fraction are untrusted; we model that by zeroing the
/// low fraction bit after round-to-nearest at bit 22).
inline float round_to_22_bits(float x) {
  std::uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  // Round to nearest at the 2^-22 position of the significand, then clear
  // the low bit. Skip inf/nan (exponent all ones).
  if ((u & 0x7f800000u) != 0x7f800000u) {
    u += 1u;          // round half up at the dropped bit
    u &= ~1u;         // drop the lowest fraction bit
  }
  float out;
  std::memcpy(&out, &u, sizeof(out));
  return out;
}
}  // namespace detail

class gfloat {
 public:
  gfloat() = default;
  constexpr gfloat(float v) : v_(v) {}  // NOLINT implicit by design

  float value() const { return v_; }
  explicit operator float() const { return v_; }

  // --- counted arithmetic -------------------------------------------------
  friend gfloat operator+(gfloat a, gfloat b) { tick1(); return {a.v_ + b.v_}; }
  friend gfloat operator-(gfloat a, gfloat b) { tick1(); return {a.v_ - b.v_}; }
  friend gfloat operator*(gfloat a, gfloat b) { tick1(); return {a.v_ * b.v_}; }
  friend gfloat operator/(gfloat a, gfloat b) {
    auto* s = current_stats();
    if (s) { ++s->divs; ++s->flops; }
    const float q = a.v_ / b.v_;
    return {fast_math_enabled() ? detail::round_to_22_bits(q) : q};
  }
  gfloat operator-() const { return {-v_}; }  // sign flip is free

  gfloat& operator+=(gfloat b) { *this = *this + b; return *this; }
  gfloat& operator-=(gfloat b) { *this = *this - b; return *this; }
  gfloat& operator*=(gfloat b) { *this = *this * b; return *this; }
  gfloat& operator/=(gfloat b) { *this = *this / b; return *this; }

  // Comparisons: predicate ops, not counted as FLOPs.
  friend bool operator==(gfloat a, gfloat b) { return a.v_ == b.v_; }
  friend bool operator!=(gfloat a, gfloat b) { return a.v_ != b.v_; }
  friend bool operator<(gfloat a, gfloat b) { return a.v_ < b.v_; }
  friend bool operator>(gfloat a, gfloat b) { return a.v_ > b.v_; }
  friend bool operator<=(gfloat a, gfloat b) { return a.v_ <= b.v_; }
  friend bool operator>=(gfloat a, gfloat b) { return a.v_ >= b.v_; }

 private:
  [[gnu::always_inline]] static void tick1() {
    auto* s = current_stats();
    if (s) { ++s->flops; ++s->fp_instrs; }
  }
  float v_ = 0.0f;
};

/// Fused multiply-add: one issued instruction, two FLOPs — the dual-issue
/// pipeline behaviour the paper's gamma assumes ("a floating-point
/// multiply-add is counted as one gamma").
inline gfloat gfma(gfloat a, gfloat b, gfloat c) {
  auto* s = current_stats();
  if (s) { s->flops += 2; ++s->fp_instrs; }
  return {a.value() * b.value() + c.value()};
}

/// Dependency-chained FMA for latency microbenchmarks: like gfma, but also
/// charges the FP pipeline latency to the thread's dependency chain (a
/// register-to-register dependent chain exposes the full pipeline depth,
/// which is how the paper measures gamma).
inline gfloat gfma_dep(gfloat a, gfloat b, gfloat c, double pipeline_cycles) {
  auto* s = current_stats();
  if (s) {
    s->flops += 2;
    ++s->fp_instrs;
    s->dep_latency_cycles += pipeline_cycles;
  }
  return {a.value() * b.value() + c.value()};
}

inline gfloat gsqrt(gfloat a) {
  auto* s = current_stats();
  if (s) { ++s->sqrts; ++s->flops; }
  const float r = std::sqrt(a.value());
  return {fast_math_enabled() ? detail::round_to_22_bits(r) : r};
}

inline gfloat gabs(gfloat a) { return {std::fabs(a.value())}; }

/// Complex device scalar built from two gfloats: all real-FLOP counting is
/// inherited from gfloat, so a complex MAC naturally counts 8 real FLOPs —
/// consistent with the paper's 8mn^2 - 8/3 n^3 complex-QR accounting.
class gcomplex {
 public:
  gcomplex() = default;
  gcomplex(gfloat re, gfloat im) : re_(re), im_(im) {}
  constexpr gcomplex(float re) : re_(re), im_(0.0f) {}  // NOLINT
  gcomplex(std::complex<float> z) : re_(z.real()), im_(z.imag()) {}  // NOLINT

  std::complex<float> to_std() const { return {re_.value(), im_.value()}; }

  gfloat re() const { return re_; }
  gfloat im() const { return im_; }

  friend gcomplex operator+(gcomplex a, gcomplex b) {
    return {a.re_ + b.re_, a.im_ + b.im_};
  }
  friend gcomplex operator-(gcomplex a, gcomplex b) {
    return {a.re_ - b.re_, a.im_ - b.im_};
  }
  friend gcomplex operator*(gcomplex a, gcomplex b) {
    return {gfma(a.re_, b.re_, -(a.im_ * b.im_)), gfma(a.re_, b.im_, a.im_ * b.re_)};
  }
  /// Scale by a real.
  friend gcomplex operator*(gcomplex a, gfloat s) { return {a.re_ * s, a.im_ * s}; }
  friend gcomplex operator*(gfloat s, gcomplex a) { return a * s; }
  friend gcomplex operator/(gcomplex a, gfloat s) { return {a.re_ / s, a.im_ / s}; }
  gcomplex operator-() const { return {-re_, -im_}; }

  gcomplex& operator+=(gcomplex b) { *this = *this + b; return *this; }
  gcomplex& operator-=(gcomplex b) { *this = *this - b; return *this; }

  gcomplex conj() const { return {re_, -im_}; }
  /// |z|^2 = re^2 + im^2.
  gfloat norm2() const { return gfma(re_, re_, im_ * im_); }

 private:
  gfloat re_{0.0f};
  gfloat im_{0.0f};
};

/// c += conj(a) * b — the complex MAC used in Householder inner products.
inline gcomplex gcmadd_conj(gcomplex a, gcomplex b, gcomplex c) {
  return c + a.conj() * b;
}

}  // namespace regla::simt
