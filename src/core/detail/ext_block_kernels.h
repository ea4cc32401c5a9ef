// Extension kernels beyond the paper's §V set, addressing its stated
// limitations: partial-pivoting LU ("we do not pivot for stability"),
// Cholesky for SPD systems, and a batched normal-equations triangular solve
// (R^H R w = v) so applications like STAP can keep the whole solve chain on
// the GPU.
#pragma once

#include "core/detail/scalar_ops.h"
#include "core/layout.h"
#include "simt/simt.h"

namespace regla::core::detail {

// --- Cholesky, 2D cyclic ----------------------------------------------------

struct CholBlockArgs {
  float* a = nullptr;  ///< SPD matrices; L lands in the lower triangle
  int n = 0;
  int count = 0;
  int* notspd = nullptr;  ///< optional non-positive-pivot flags
};

inline simt::Lane cholesky_block_2d(simt::BlockCtx& ctx, const CholBlockArgs& arg) {
  const int k = ctx.block();
  if (k >= arg.count) co_return;
  const int n = arg.n;
  Grid2D g2(ctx.tid(), ctx.nthreads(), n, n);
  const int r = g2.rdim;

  auto ga = ctx.global(arg.a);
  const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(k) * n * n;

  auto l_sh = ctx.shared<float>(n);
  auto scale_sh = ctx.shared<float>(2);  // [1/L(c,c), notspd]

  ctx.tag(simt::OpTag::load);
  auto A = ctx.reg_tile<gfloat>(g2.hreg, g2.wreg);
  for (int jj = 0; jj < g2.wreg; ++jj) {
    const int gj = g2.gcol(jj);
    for (int ii = 0; ii < g2.hreg; ++ii) {
      const int gi = g2.grow(ii);
      A.set(ii, jj, (gi < n && gj < n)
                        ? gfloat(ga.ld(base + gi + static_cast<std::ptrdiff_t>(gj) * n))
                        : gfloat(0.0f));
    }
  }
  if (ctx.tid() == 0) scale_sh.st(1, gfloat(0.0f));
  co_await ctx.sync();

  for (int c = 0; c < n; ++c) {
    ctx.set_panel(c / r);
    // Right-looking: A(c,c) already holds the updated pivot.
    ctx.tag(simt::OpTag::form_hh);
    if (g2.owns(c, c)) {
      const gfloat d = A.get(g2.lrow(c), g2.lcol(c));
      if (d.value() > 0.0f) {
        const gfloat l = gsqrt(d);
        A.set(g2.lrow(c), g2.lcol(c), l);
        scale_sh.st(0, gfloat(1.0f) / l);
        l_sh.st(c, l);
      } else {
        scale_sh.st(0, gfloat(0.0f));
        scale_sh.st(1, gfloat(1.0f));
      }
    }
    co_await ctx.sync();
    const gfloat inv = scale_sh.ld(0);
    if (g2.tcol == c % r) {
      const int jloc = g2.lcol(c);
      for (int ii = g2.lrow_from(c + 1); ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi >= n) continue;
        const gfloat l = A.get(ii, jloc) * inv;
        A.set(ii, jloc, l);
        l_sh.st(gi, l);
      }
    }
    co_await ctx.sync();
    // Symmetric trailing update on the lower triangle only.
    ctx.tag(simt::OpTag::rank1);
    for (int jj = g2.lcol_from(c + 1); jj < g2.wreg; ++jj) {
      const int gj = g2.gcol(jj);
      if (gj >= n) continue;
      const gfloat lj = l_sh.ld(gj);
      for (int ii = g2.lrow_from(gj); ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < n) A.sub(ii, jj, l_sh.ld(gi) * lj);
      }
    }
    co_await ctx.sync();
  }

  ctx.set_panel(-1);
  ctx.tag(simt::OpTag::store);
  for (int jj = 0; jj < g2.wreg; ++jj) {
    const int gj = g2.gcol(jj);
    for (int ii = 0; ii < g2.hreg; ++ii) {
      const int gi = g2.grow(ii);
      if (gi < n && gj < n && gi >= gj)  // lower triangle carries the result
        ga.st(base + gi + static_cast<std::ptrdiff_t>(gj) * n, A.get(ii, jj));
    }
  }
  if (arg.notspd != nullptr && ctx.tid() == 0 && scale_sh.ld(1).value() != 0.0f)
    ctx.global(arg.notspd).st(k, 1);
}

// --- partial-pivoting LU, 2D cyclic -----------------------------------------

struct LuPivBlockArgs {
  float* a = nullptr;
  int* piv = nullptr;  ///< count x n pivot rows (sgetrf convention)
  int n = 0;
  int count = 0;
  int* singular = nullptr;
};

inline simt::Lane lu_pivot_block_2d(simt::BlockCtx& ctx, const LuPivBlockArgs& arg) {
  const int k = ctx.block();
  if (k >= arg.count) co_return;
  const int n = arg.n;
  Grid2D g2(ctx.tid(), ctx.nthreads(), n, n);
  const int r = g2.rdim;

  auto ga = ctx.global(arg.a);
  const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(k) * n * n;

  auto l_sh = ctx.shared<float>(n);
  auto u_sh = ctx.shared<float>(n);
  auto rowc_sh = ctx.shared<float>(n);
  auto rowp_sh = ctx.shared<float>(n);
  auto maxv_sh = ctx.shared<float>(g2.rdim);
  auto maxi_sh = ctx.shared<float>(g2.rdim);
  auto head_sh = ctx.shared<float>(4);  // [pivot row, scale, singular, -]
  auto piv_sh = ctx.shared<float>(n);

  ctx.tag(simt::OpTag::load);
  auto A = ctx.reg_tile<gfloat>(g2.hreg, g2.wreg);
  for (int jj = 0; jj < g2.wreg; ++jj) {
    const int gj = g2.gcol(jj);
    for (int ii = 0; ii < g2.hreg; ++ii) {
      const int gi = g2.grow(ii);
      A.set(ii, jj, (gi < n && gj < n)
                        ? gfloat(ga.ld(base + gi + static_cast<std::ptrdiff_t>(gj) * n))
                        : gfloat(0.0f));
    }
  }
  if (ctx.tid() == 0) head_sh.st(2, gfloat(0.0f));
  co_await ctx.sync();

  for (int c = 0; c < n; ++c) {
    ctx.set_panel(c / r);
    // 1. Column owners find their local |pivot| candidates.
    ctx.tag(simt::OpTag::form_hh);
    if (g2.tcol == c % r) {
      gfloat best(0.0f);
      int best_i = c;
      const int jloc = g2.lcol(c);
      for (int ii = g2.lrow_from(c); ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi >= n) continue;
        const gfloat v = gabs(A.get(ii, jloc));
        if (v.value() > best.value()) { best = v; best_i = gi; }
      }
      maxv_sh.st(g2.trow, best);
      maxi_sh.st(g2.trow, gfloat(static_cast<float>(best_i)));
    }
    co_await ctx.sync();
    // 2. One thread reduces the candidates and announces the pivot row.
    if (ctx.tid() == 0) {
      gfloat best(0.0f);
      int p = c;
      for (int t = 0; t < r; ++t) {
        const gfloat v = maxv_sh.ld(t);
        if (v.value() > best.value()) {
          best = v;
          p = static_cast<int>(maxi_sh.ld(t).value());
        }
      }
      head_sh.st(0, gfloat(static_cast<float>(p)));
      if (best.value() == 0.0f) head_sh.st(2, gfloat(1.0f));
      piv_sh.st(c, gfloat(static_cast<float>(p)));
    }
    co_await ctx.sync();
    const int p = static_cast<int>(head_sh.ld(0).value());
    // 3. Swap rows c and p through shared memory (identity swap if p == c).
    if (g2.trow == c % r) {
      const int iloc = g2.lrow(c);
      for (int jj = 0; jj < g2.wreg; ++jj) {
        const int gj = g2.gcol(jj);
        if (gj < n) rowc_sh.st(gj, A.get(iloc, jj));
      }
    }
    if (g2.trow == p % r) {
      const int iloc = g2.lrow(p);
      for (int jj = 0; jj < g2.wreg; ++jj) {
        const int gj = g2.gcol(jj);
        if (gj < n) rowp_sh.st(gj, A.get(iloc, jj));
      }
    }
    co_await ctx.sync();
    if (g2.trow == c % r) {
      const int iloc = g2.lrow(c);
      for (int jj = 0; jj < g2.wreg; ++jj) {
        const int gj = g2.gcol(jj);
        if (gj < n) A.set(iloc, jj, rowp_sh.ld(gj));
      }
    }
    if (g2.trow == p % r) {
      const int iloc = g2.lrow(p);
      for (int jj = 0; jj < g2.wreg; ++jj) {
        const int gj = g2.gcol(jj);
        if (gj < n) A.set(iloc, jj, rowc_sh.ld(gj));
      }
    }
    // The diagonal thread can now compute the scale from the swapped pivot.
    if (g2.owns(c, c)) {
      const gfloat pivot = rowp_sh.ld(c);  // row p's entry in column c
      head_sh.st(1, pivot.value() != 0.0f ? gfloat(1.0f) / pivot : gfloat(0.0f));
    }
    co_await ctx.sync();
    if (c == n - 1) break;  // last column: only the pivot search applies
    // 4. Scale l, publish l and u (as in the unpivoted kernel).
    const gfloat scale = head_sh.ld(1);
    if (g2.tcol == c % r) {
      const int jloc = g2.lcol(c);
      for (int ii = g2.lrow_from(c + 1); ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi >= n) continue;
        const gfloat l = A.get(ii, jloc) * scale;
        A.set(ii, jloc, l);
        l_sh.st(gi, l);
      }
    }
    if (g2.trow == c % r) {
      const int iloc = g2.lrow(c);
      for (int jj = g2.lcol_from(c + 1); jj < g2.wreg; ++jj) {
        const int gj = g2.gcol(jj);
        if (gj < n) u_sh.st(gj, A.get(iloc, jj));
      }
    }
    co_await ctx.sync();
    // 5. Rank-1 Schur update.
    ctx.tag(simt::OpTag::rank1);
    for (int jj = g2.lcol_from(c + 1); jj < g2.wreg; ++jj) {
      const int gj = g2.gcol(jj);
      if (gj >= n) continue;
      const gfloat u = u_sh.ld(gj);
      for (int ii = g2.lrow_from(c + 1); ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < n) A.sub(ii, jj, l_sh.ld(gi) * u);
      }
    }
    co_await ctx.sync();
  }

  ctx.set_panel(-1);
  ctx.tag(simt::OpTag::store);
  for (int jj = 0; jj < g2.wreg; ++jj) {
    const int gj = g2.gcol(jj);
    for (int ii = 0; ii < g2.hreg; ++ii) {
      const int gi = g2.grow(ii);
      if (gi < n && gj < n)
        ga.st(base + gi + static_cast<std::ptrdiff_t>(gj) * n, A.get(ii, jj));
    }
  }
  if (ctx.tid() == 0) {
    if (arg.piv != nullptr) {
      auto gp = ctx.global(arg.piv);
      for (int c = 0; c < n; ++c)
        gp.st(static_cast<std::ptrdiff_t>(k) * n + c,
              static_cast<int>(piv_sh.ld(c).value()));
    }
    if (arg.singular != nullptr && head_sh.ld(2).value() != 0.0f)
      ctx.global(arg.singular).st(k, 1);
  }
}

// --- normal-equations triangular solve (R^H R w = v), column cyclic --------

template <typename S>
struct NormalEqArgs {
  using Store = typename StorageOf<S>::type;
  const Store* r = nullptr;  ///< count x (n x n), R in the upper triangle
  const Store* v = nullptr;  ///< count x n right-hand sides
  Store* w = nullptr;        ///< count x n solutions
  int n = 0;
  int count = 0;
};

/// One problem per block; thread t owns columns j === t (mod p) of R in its
/// registers. Forward solve R^H y = v runs column-parallel (each step
/// broadcasts y_k and every thread updates the residuals of its columns);
/// back solve R w = y is column-local to the owner of column k.
template <typename S>
simt::Lane normal_eq_solve_block(simt::BlockCtx& ctx, const NormalEqArgs<S>& arg) {
  using Store = typename StorageOf<S>::type;
  const int k = ctx.block();
  if (k >= arg.count) co_return;
  const int n = arg.n, p = ctx.nthreads(), t = ctx.tid();
  const int cpt = (n + p - 1) / p;

  auto gr = ctx.global(arg.r);
  auto gv = ctx.global(arg.v);
  auto gw = ctx.global(arg.w);
  const std::ptrdiff_t rbase = static_cast<std::ptrdiff_t>(k) * n * n;
  const std::ptrdiff_t vbase = static_cast<std::ptrdiff_t>(k) * n;

  auto acc_sh = ctx.shared<Store>(n);  // running residuals, then y, then w

  ctx.tag(simt::OpTag::load);
  auto R = ctx.reg_tile<S>(n, cpt);
  for (int jj = 0; jj < cpt; ++jj) {
    const int gj = t + jj * p;
    if (gj >= n) continue;
    for (int i = 0; i <= gj; ++i)
      R.set(i, jj, gr.ld(rbase + i + static_cast<std::ptrdiff_t>(gj) * n));
  }
  for (int i = t; i < n; i += p) acc_sh.st(i, gv.ld(vbase + i));
  co_await ctx.sync();

  // Forward: y_k = acc_k / conj(R(k,k)); acc_i -= conj(R(k,i)) y_k, i > k.
  ctx.tag(simt::OpTag::other);
  for (int c = 0; c < n; ++c) {
    if (t == c % p) {
      const int jloc = c / p;
      acc_sh.st(c, div_scalar(acc_sh.ld(c), conj_of(R.get(c, jloc))));
    }
    co_await ctx.sync();
    const S yc = acc_sh.ld(c);
    for (int jj = 0; jj < cpt; ++jj) {
      const int gj = t + jj * p;
      if (gj > c && gj < n)
        acc_sh.st(gj, acc_sh.ld(gj) - conj_of(R.get(c, jj)) * yc);
    }
    co_await ctx.sync();
  }
  // Back: w_k = acc_k / R(k,k); acc_i -= R(i,k) w_k for i < k (column-local).
  for (int c = n - 1; c >= 0; --c) {
    if (t == c % p) {
      const int jloc = c / p;
      const S wc = div_scalar(acc_sh.ld(c), R.get(c, jloc));
      acc_sh.st(c, wc);
      for (int i = 0; i < c; ++i)
        acc_sh.st(i, acc_sh.ld(i) - R.get(i, jloc) * wc);
    }
    co_await ctx.sync();
  }

  ctx.tag(simt::OpTag::store);
  for (int i = t; i < n; i += p) gw.st(vbase + i, acc_sh.ld(i));
}

// --- forward triangular solve (L x = b), column cyclic ----------------------

struct TrsmBlockArgs {
  const float* l = nullptr;  ///< count x (n x n), L in the lower triangle
  float* b = nullptr;        ///< count x n right-hand sides, replaced by x
  int n = 0;
  int count = 0;
  int* singular = nullptr;   ///< optional zero-diagonal flags
};

/// One problem per block; thread t owns columns j === t (mod p) of L in its
/// registers (the normal-eq layout, lower triangle instead of upper). Each
/// forward step has column c's owner divide by L(c,c) and publish x_c; every
/// thread then retires its own columns' updates of the shared residual.
inline simt::Lane trsm_lower_block(simt::BlockCtx& ctx, const TrsmBlockArgs& arg) {
  const int k = ctx.block();
  if (k >= arg.count) co_return;
  const int n = arg.n, p = ctx.nthreads(), t = ctx.tid();
  const int cpt = (n + p - 1) / p;

  auto gl = ctx.global(arg.l);
  auto gb = ctx.global(arg.b);
  const std::ptrdiff_t lbase = static_cast<std::ptrdiff_t>(k) * n * n;
  const std::ptrdiff_t bbase = static_cast<std::ptrdiff_t>(k) * n;

  auto acc_sh = ctx.shared<float>(n);    // running residuals, then x
  auto flag_sh = ctx.shared<float>(1);   // zero-diagonal marker

  ctx.tag(simt::OpTag::load);
  auto L = ctx.reg_tile<gfloat>(n, cpt);
  for (int jj = 0; jj < cpt; ++jj) {
    const int gj = t + jj * p;
    if (gj >= n) continue;
    for (int i = gj; i < n; ++i)
      L.set(i, jj, gfloat(gl.ld(lbase + i + static_cast<std::ptrdiff_t>(gj) * n)));
  }
  for (int i = t; i < n; i += p) acc_sh.st(i, gb.ld(bbase + i));
  if (t == 0) flag_sh.st(0, gfloat(0.0f));
  co_await ctx.sync();

  // Forward: x_c = acc_c / L(c,c); acc_i -= L(i,c) x_c for i > c.
  ctx.tag(simt::OpTag::other);
  for (int c = 0; c < n; ++c) {
    if (t == c % p) {
      const int jloc = c / p;
      const gfloat d = L.get(c, jloc);
      gfloat xc(0.0f);
      if (d.value() != 0.0f) {
        xc = div_scalar(acc_sh.ld(c), d);
      } else {
        flag_sh.st(0, gfloat(1.0f));
      }
      acc_sh.st(c, xc);
      for (int i = c + 1; i < n; ++i)
        acc_sh.st(i, acc_sh.ld(i) - L.get(i, jloc) * xc);
    }
    co_await ctx.sync();
  }

  ctx.tag(simt::OpTag::store);
  for (int i = t; i < n; i += p) gb.st(bbase + i, acc_sh.ld(i));
  if (arg.singular != nullptr && t == 0 && flag_sh.ld(0).value() != 0.0f)
    ctx.global(arg.singular).st(k, 1);
}

// --- apply Q^H to new right-hand sides (ormqr-style), 2D cyclic -------------

template <typename S>
struct ApplyQtArgs {
  using Store = typename StorageOf<S>::type;
  const Store* qr = nullptr;    ///< packed QR factorizations (m x n)
  const Store* taus = nullptr;  ///< count x n reflector scalars
  Store* b = nullptr;           ///< count x m right-hand sides, replaced by Q^H b
  int m = 0;
  int n = 0;
  int count = 0;
};

/// Applies the stored reflectors of a packed QR to a fresh vector: the
/// repeated-solve path (factor once with qr_per_block, then apply_qt +
/// triangular solve per new b).
template <typename S>
simt::Lane apply_qt_block_2d(simt::BlockCtx& ctx, const ApplyQtArgs<S>& arg) {
  using Store = typename StorageOf<S>::type;
  const int k = ctx.block();
  if (k >= arg.count) co_return;
  const int m = arg.m, n = arg.n;
  Grid2D g2(ctx.tid(), ctx.nthreads(), m, n);
  const int r = g2.rdim;

  auto gq = ctx.global(arg.qr);
  auto gt = ctx.global(arg.taus);
  auto gb = ctx.global(arg.b);
  const std::ptrdiff_t qbase = static_cast<std::ptrdiff_t>(k) * m * n;
  const std::ptrdiff_t tbase = static_cast<std::ptrdiff_t>(k) * n;
  const std::ptrdiff_t bbase = static_cast<std::ptrdiff_t>(k) * m;

  auto b_sh = ctx.shared<Store>(m);
  auto part = ctx.shared<Store>(r);
  auto w_sh = ctx.shared<Store>(2);

  ctx.tag(simt::OpTag::load);
  auto A = ctx.reg_tile<S>(g2.hreg, g2.wreg);
  for (int jj = 0; jj < g2.wreg; ++jj) {
    const int gj = g2.gcol(jj);
    for (int ii = 0; ii < g2.hreg; ++ii) {
      const int gi = g2.grow(ii);
      A.set(ii, jj, (gi < m && gj < n)
                        ? S(gq.ld(qbase + gi + static_cast<std::ptrdiff_t>(gj) * m))
                        : S(0.0f));
    }
  }
  for (int i = ctx.tid(); i < m; i += ctx.nthreads())
    b_sh.st(i, gb.ld(bbase + i));
  co_await ctx.sync();

  const int ncols = (m > n) ? n : n - 1;
  for (int c = 0; c < ncols; ++c) {
    // Partial v^H b over owned rows (v has a unit head at row c).
    ctx.tag(simt::OpTag::matvec);
    if (g2.tcol == c % r) {
      S acc(0.0f);
      const int jloc = g2.lcol(c);
      for (int ii = g2.lrow_from(c + 1); ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < m) acc = mac_conj(A.get(ii, jloc), b_sh.ld(gi), acc);
      }
      part.st(g2.trow, acc);
    }
    co_await ctx.sync();
    const bool head = g2.trow == c % r && g2.tcol == c % r;
    if (head) {
      S acc = b_sh.ld(c);  // unit head of v
      for (int t = 0; t < r; ++t) acc = part.ld(t) + acc;
      const S tau = S(gt.ld(tbase + c));
      const S w = conj_of(tau) * acc;  // apply Q^H, as in factorization
      w_sh.st(0, w);
      b_sh.st(c, b_sh.ld(c) - w);
    }
    co_await ctx.sync();
    ctx.tag(simt::OpTag::rank1);
    if (g2.tcol == c % r) {
      const S w = w_sh.ld(0);
      const int jloc = g2.lcol(c);
      for (int ii = g2.lrow_from(c + 1); ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < m) b_sh.st(gi, b_sh.ld(gi) - A.get(ii, jloc) * w);
      }
    }
    co_await ctx.sync();
  }

  ctx.tag(simt::OpTag::store);
  for (int i = ctx.tid(); i < m; i += ctx.nthreads())
    gb.st(bbase + i, b_sh.ld(i));
}

}  // namespace regla::core::detail
