// Scalar abstraction that lets the per-block kernels be written once for
// real (gfloat) and complex (gcomplex) arithmetic, and for the 8-wide real
// scalar a replay group runs them on (gfloat8, simt/wide.h).
//
// Value-dependent choices go through the helpers below (make_reflector,
// to_scalar, unless). For gfloat and gcomplex they stay C++ conditionals,
// so an instrumented block counts exactly the operations of the branch it
// takes; for gfloat8 every element takes its own branch through a select.
#pragma once

#include <complex>

#include "simt/gfloat.h"
#include "simt/wide.h"

namespace regla::core::detail {

using simt::gcomplex;
using simt::gfloat;
using simt::gfloat8;
using simt::mask8;

// --- generic helpers ---------------------------------------------------
inline gfloat conj_of(gfloat x) { return x; }
inline gcomplex conj_of(gcomplex z) { return z.conj(); }

/// |x|^2 as a real.
inline gfloat abs2(gfloat x) { return x * x; }
inline gfloat abs2(gcomplex z) { return z.norm2(); }

/// acc + |x|^2 (counted as a MAC for the real case).
inline gfloat abs2_acc(gfloat x, gfloat acc) { return gfma(x, x, acc); }
inline gfloat8 abs2_acc(gfloat8 x, gfloat8 acc) { return gfma(x, x, acc); }
inline gfloat abs2_acc(gcomplex z, gfloat acc) {
  return gfma(z.re(), z.re(), gfma(z.im(), z.im(), acc));
}

/// acc + conj(a) * b.
inline gfloat mac_conj(gfloat a, gfloat b, gfloat acc) { return gfma(a, b, acc); }
inline gfloat8 mac_conj(gfloat8 a, gfloat8 b, gfloat8 acc) {
  return gfma(a, b, acc);
}
inline gcomplex mac_conj(gcomplex a, gcomplex b, gcomplex acc) {
  return acc + a.conj() * b;
}

/// Storage conversions (what lands in / comes from global memory).
template <typename S> struct StorageOf;
template <> struct StorageOf<gfloat> { using type = float; };
template <> struct StorageOf<gcomplex> { using type = std::complex<float>; };
template <> struct StorageOf<gfloat8> { using type = float; };

/// The real type of a scalar's norms and the type of its branch choices.
template <typename S> struct RealOf { using type = gfloat; };
template <> struct RealOf<gfloat8> { using type = gfloat8; };
template <typename S> struct MaskOf { using type = bool; };
template <> struct MaskOf<gfloat8> { using type = mask8; };

/// Zero where `skip`, f() elsewhere. A scalar skip does not evaluate f(),
/// so it counts nothing; a group evaluates f() for every member and keeps
/// it where the member's skip is clear.
template <typename F>
auto unless(bool skip, F&& f) -> decltype(f()) {
  return skip ? decltype(f())(0.0f) : f();
}
template <typename F>
gfloat8 unless(mask8 skip, F&& f) {
  return select(skip, gfloat8(0.0f), f());
}

inline bool is_zero(gfloat x) { return x.value() == 0.0f; }
inline bool is_zero(gcomplex z) {
  return z.re().value() == 0.0f && z.im().value() == 0.0f;
}

/// Result of the Householder reflector head computation for column c:
/// v_head = 1 implied; the column scales by `inv`; A(c,c) becomes `beta`.
template <typename S>
struct Reflector {
  S tau{};     // scalar factor (conjugated form applied in-factorization)
  S inv{};     // 1 / (alpha - beta)
  typename RealOf<S>::type beta{0.0f};
  typename MaskOf<S>::type skip{};
};

/// Real Householder head: alpha = A(c,c), sigma = sum of squares below.
inline Reflector<gfloat> make_reflector(gfloat alpha, gfloat sigma) {
  Reflector<gfloat> r;
  if (sigma.value() == 0.0f) {
    r.skip = true;
    r.beta = alpha;
    return r;
  }
  gfloat beta = gsqrt(abs2_acc(alpha, sigma));
  if (alpha.value() > 0.0f) beta = -beta;
  r.beta = beta;
  r.tau = (beta - alpha) / beta;
  r.inv = gfloat(1.0f) / (alpha - beta);
  return r;
}

/// The real head for a group: each member's make_reflector, through
/// selects. A skipping member's tau and inv are zero, as in the scalar head.
inline Reflector<gfloat8> make_reflector(gfloat8 alpha, gfloat8 sigma) {
  Reflector<gfloat8> r;
  r.skip = sigma == gfloat8(0.0f);
  const gfloat8 mag = gsqrt(abs2_acc(alpha, sigma));
  const gfloat8 beta = select(alpha > gfloat8(0.0f), -mag, mag);
  r.beta = select(r.skip, alpha, beta);
  r.tau = unless(r.skip, [&] { return (beta - alpha) / beta; });
  r.inv = unless(r.skip, [&] { return gfloat8(1.0f) / (alpha - beta); });
  return r;
}

/// Complex Householder head (clarfg with real beta).
inline Reflector<gcomplex> make_reflector(gcomplex alpha, gfloat sigma) {
  Reflector<gcomplex> r;
  const gfloat alphr = alpha.re();
  const gfloat alphi = alpha.im();
  if (sigma.value() == 0.0f && alphi.value() == 0.0f) {
    r.skip = true;
    r.beta = alphr;
    return r;
  }
  gfloat beta = gsqrt(abs2_acc(alpha, sigma));
  if (alphr.value() > 0.0f) beta = -beta;
  r.beta = beta;
  r.tau = gcomplex((beta - alphr) / beta, -(alphi / beta));
  const gcomplex denom = alpha - gcomplex(beta, gfloat(0.0f));
  // 1/z = conj(z) / |z|^2.
  const gfloat d2 = denom.norm2();
  r.inv = gcomplex(denom.re() / d2, -(denom.im() / d2));
  return r;
}

/// The tau actually applied during factorization (Q^H accumulation):
/// conj(tau) for complex, tau for real.
inline gfloat applied_tau(const Reflector<gfloat>& r) { return r.tau; }
inline gcomplex applied_tau(const Reflector<gcomplex>& r) { return r.tau.conj(); }

/// Diagonal replacement after forming a reflector: beta, unless the column
/// was already zero below the diagonal (skip), in which case alpha stays.
inline gfloat to_scalar(gfloat beta, gfloat alpha, bool skip) {
  return skip ? alpha : beta;
}
inline gcomplex to_scalar(gfloat beta, gcomplex alpha, bool skip) {
  return skip ? alpha : gcomplex(beta, gfloat(0.0f));
}
inline gfloat8 to_scalar(gfloat8 beta, gfloat8 alpha, mask8 skip) {
  return select(skip, alpha, beta);
}

/// Full scalar division (complex divide kept out of gcomplex's API so its
/// FLOP cost stays explicit: two real divides plus the norm).
inline gfloat div_scalar(gfloat a, gfloat b) { return a / b; }
inline gfloat8 div_scalar(gfloat8 a, gfloat8 b) { return a / b; }
inline gcomplex div_scalar(gcomplex a, gcomplex b) {
  const gfloat d = b.norm2();
  const gcomplex num = a * b.conj();
  return {num.re() / d, num.im() / d};
}

}  // namespace regla::core::detail
