// One-problem-per-block LU and Gauss-Jordan kernels, 2D cyclic layout
// (paper §V-B, Listings 5-7). No pivoting, exactly like the paper; callers
// are expected to provide diagonally dominant systems or check the
// `notsolved` flag.
#pragma once

#include "core/detail/scalar_ops.h"
#include "core/layout.h"
#include "simt/simt.h"

namespace regla::core::detail {

struct LuBlockArgs {
  float* a = nullptr;
  int n = 0;
  int count = 0;
  int* notsolved = nullptr;  ///< optional per-problem zero-pivot flags
};

/// Unpivoted LU, one problem per block, 2D cyclic.
inline simt::Lane lu_block_2d(simt::BlockCtx& ctx, const LuBlockArgs& arg) {
  const int k = ctx.block();
  if (k >= arg.count) co_return;
  const int n = arg.n;
  Grid2D g2(ctx.tid(), ctx.nthreads(), n, n);
  const int r = g2.rdim;

  auto ga = ctx.global(arg.a);
  const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(k) * n * n;

  auto l_sh = ctx.shared<float>(n);
  auto u_sh = ctx.shared<float>(n);
  auto scale_sh = ctx.shared<float>(2);  // [scale, notsolved]

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

  for (int c = 0; c < n - 1; ++c) {
    ctx.set_panel(c / r);
    // Paper Listing 5: the diagonal thread computes the scale factor.
    ctx.tag(simt::OpTag::form_hh);
    if (g2.owns(c, c)) {
      const gfloat pivot = A.get(g2.lrow(c), g2.lcol(c));
      if (pivot.value() != 0.0f) {
        scale_sh.st(0, gfloat(1.0f) / pivot);
      } else {
        scale_sh.st(0, gfloat(0.0f));
        scale_sh.st(1, gfloat(1.0f));
      }
    }
    co_await ctx.sync();
    // Paper Listing 6: scale while extracting l; row owners publish u.
    const gfloat scale = scale_sh.ld(0);
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
    // Paper Listing 7: rank-1 update of the Schur complement.
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
  if (arg.notsolved != nullptr && ctx.tid() == 0 &&
      scale_sh.ld(1).value() != 0.0f) {
    auto gf = ctx.global(arg.notsolved);
    gf.st(k, 1);
  }
}

struct GjBlockArgs {
  float* a = nullptr;
  float* b = nullptr;
  int n = 0;
  int count = 0;
  int* notsolved = nullptr;
};

/// Gauss-Jordan solve of [A | b], one problem per block, 2D cyclic.
/// b_k is overwritten with x_k; A_k ends up as garbage working values (the
/// paper's kernel likewise only preserves the solution vector).
inline simt::Lane gj_block_2d(simt::BlockCtx& ctx, const GjBlockArgs& arg) {
  const int k = ctx.block();
  if (k >= arg.count) co_return;
  const int n = arg.n;
  const int naug = n + 1;
  Grid2D g2(ctx.tid(), ctx.nthreads(), n, naug);
  const int r = g2.rdim;

  auto ga = ctx.global(arg.a);
  auto gb = ctx.global(arg.b);
  const std::ptrdiff_t abase = static_cast<std::ptrdiff_t>(k) * n * n;
  const std::ptrdiff_t bbase = static_cast<std::ptrdiff_t>(k) * n;

  auto l_sh = ctx.shared<float>(n);
  auto u_sh = ctx.shared<float>(naug);
  auto scale_sh = ctx.shared<float>(2);

  ctx.tag(simt::OpTag::load);
  auto A = ctx.reg_tile<gfloat>(g2.hreg, g2.wreg);
  for (int jj = 0; jj < g2.wreg; ++jj) {
    const int gj = g2.gcol(jj);
    for (int ii = 0; ii < g2.hreg; ++ii) {
      const int gi = g2.grow(ii);
      if (gi < n && gj < n)
        A.set(ii, jj, ga.ld(abase + gi + static_cast<std::ptrdiff_t>(gj) * n));
      else if (gi < n && gj == n)
        A.set(ii, jj, gb.ld(bbase + gi));
      else
        A.set(ii, jj, gfloat(0.0f));
    }
  }
  if (ctx.tid() == 0) scale_sh.st(1, gfloat(0.0f));
  co_await ctx.sync();

  for (int c = 0; c < n; ++c) {
    ctx.set_panel(c / r);
    ctx.tag(simt::OpTag::form_hh);
    if (g2.owns(c, c)) {
      const gfloat pivot = A.get(g2.lrow(c), g2.lcol(c));
      if (pivot.value() != 0.0f) {
        scale_sh.st(0, gfloat(1.0f) / pivot);
      } else {
        scale_sh.st(0, gfloat(0.0f));
        scale_sh.st(1, gfloat(1.0f));
      }
    }
    co_await ctx.sync();
    const gfloat scale = scale_sh.ld(0);
    // Row owners scale the pivot row and publish it; column owners publish
    // the (unscaled) pivot column for elimination.
    if (g2.trow == c % r) {
      const int iloc = g2.lrow(c);
      for (int jj = g2.lcol_from(c); jj < g2.wreg; ++jj) {
        const int gj = g2.gcol(jj);
        if (gj >= naug) continue;
        const gfloat u = A.get(iloc, jj) * scale;
        A.set(iloc, jj, u);
        u_sh.st(gj, u);
      }
    }
    if (g2.tcol == c % r) {
      const int jloc = g2.lcol(c);
      for (int ii = 0; ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < n && gi != c) l_sh.st(gi, A.get(ii, jloc));
      }
    }
    co_await ctx.sync();
    ctx.tag(simt::OpTag::rank1);
    for (int jj = g2.lcol_from(c + 1); jj < g2.wreg; ++jj) {
      const int gj = g2.gcol(jj);
      if (gj >= naug) continue;
      const gfloat u = u_sh.ld(gj);
      for (int ii = 0; ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < n && gi != c) A.sub(ii, jj, l_sh.ld(gi) * u);
      }
    }
    co_await ctx.sync();
  }

  ctx.set_panel(-1);
  ctx.tag(simt::OpTag::store);
  if (g2.tcol == n % r) {
    const int jloc = g2.lcol(n);
    for (int ii = 0; ii < g2.hreg; ++ii) {
      const int gi = g2.grow(ii);
      if (gi < n) gb.st(bbase + gi, A.get(ii, jloc));
    }
  }
  if (arg.notsolved != nullptr && ctx.tid() == 0 &&
      scale_sh.ld(1).value() != 0.0f) {
    auto gf = ctx.global(arg.notsolved);
    gf.st(k, 1);
  }
}

}  // namespace regla::core::detail
