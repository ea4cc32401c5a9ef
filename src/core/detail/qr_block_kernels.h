// One-problem-per-block Householder QR device kernels (paper §V).
//
// The 2D-cyclic kernel is templated over the scalar (gfloat / gcomplex) and
// optionally factors an augmented system [A | b] and back-substitutes, which
// gives the "QR solve" of Figs. 7 and 12 and the complex QR of §VII. The 1D
// row- and column-cyclic variants exist for the Fig. 7 layout comparison.
//
// Algorithm per column c (exactly the paper's §V-B structure):
//   1. owning-column threads compute local norm partials        [form_hh]
//   2. the diagonal thread reduces serially, builds the reflector head
//   3. owning-column threads scale and publish v to shared
//   4. all threads compute matvec partials; row-0 threads reduce [matvec]
//   5. rank-1 trailing update                                    [rank1]
#pragma once

#include <type_traits>

#include "core/detail/scalar_ops.h"
#include "core/layout.h"
#include "simt/simt.h"

namespace regla::core::detail {

using simt::BlockCtx;
using simt::OpTag;

// --- reflector head <-> shared memory ------------------------------------
// Layout of the 8-float head buffer: [tau_re, tau_im, inv_re, inv_im, beta,
// skip]; real kernels use only [0], [2], [4], [5]. `Head` is a block's
// SharedArray<float> or a group's GroupShared<float>.

/// The skip flag as a stored value: 1 where skipped, 0 elsewhere.
inline gfloat skip_flag(bool skip) { return gfloat(skip ? 1.0f : 0.0f); }
inline gfloat8 skip_flag(mask8 skip) {
  return select(skip, gfloat8(1.0f), gfloat8(0.0f));
}

template <typename Head, typename S>
void store_head(Head& h, const Reflector<S>& r) {
  h.st(0, r.tau);
  h.st(2, r.inv);
  h.st(4, r.beta);
  h.st(5, skip_flag(r.skip));
}
template <typename Head>
void store_head(Head& h, const Reflector<gcomplex>& r) {
  h.st(0, r.tau.re());
  h.st(1, r.tau.im());
  h.st(2, r.inv.re());
  h.st(3, r.inv.im());
  h.st(4, r.beta);
  h.st(5, skip_flag(r.skip));
}

template <typename S, typename Head>
S load_head_inv(Head& h) {
  if constexpr (std::is_same_v<S, gcomplex>) return {h.ld(2), h.ld(3)};
  else return h.ld(2);
}

/// tau as applied during factorization (conjugated for complex).
template <typename S, typename Head>
S load_head_applied_tau(Head& h) {
  if constexpr (std::is_same_v<S, gcomplex>) return {h.ld(0), -h.ld(1)};
  else return h.ld(0);
}

/// bool for a block, mask8 for a group.
template <typename Head>
auto load_head_skip(Head& h) {
  using V = decltype(h.ld(5));
  return h.ld(5) != V(0.0f);
}

// --- kernel parameters -----------------------------------------------------

/// `Store` is the batch's element type: float for the real kernel (which
/// blocks run on gfloat and replay groups on gfloat8), std::complex<float>
/// for the complex one.
template <typename Store>
struct QrBlockArgs {
  Store* a = nullptr;      ///< batch of m x n matrices, problem-major
  Store* b = nullptr;      ///< optional batch of m x 1 right-hand sides
  Store* taus = nullptr;   ///< optional batch of n tau scalars
  int m = 0;
  int n = 0;               ///< columns of A (reflector columns)
  int count = 0;           ///< problems in the batch
  bool solve = false;      ///< factor [A | b] and back-substitute into b
  /// Factor [A | b] but leave Q^H b in b (no back-substitution): the
  /// intermediate steps of a tiled least-squares chain.
  bool augment_only = false;
};

/// 2D-cyclic one-problem-per-block Householder QR (+ optional solve).
///
/// One body for a block (Ctx = BlockCtx, S = gfloat / gcomplex) and for a
/// replay group (Ctx = simt::GroupCtx, S = gfloat8): every branch below is
/// on the thread's coordinates, uniform across a group, except the
/// reflector's skip, which goes through make_reflector, to_scalar and
/// unless (scalar_ops.h).
template <typename S, typename Ctx>
simt::Lane qr_block_2d(Ctx& ctx,
                       const QrBlockArgs<typename StorageOf<S>::type>& arg) {
  using Store = typename StorageOf<S>::type;
  using R = typename RealOf<S>::type;
  // One block per problem: each addresses its own through the views below.
  REGLA_CHECK(ctx.nblocks() == arg.count);
  const int m = arg.m, n = arg.n;
  const bool aug = arg.solve || arg.augment_only;
  const int naug = aug ? n + 1 : n;
  Grid2D g2(ctx.tid(), ctx.nthreads(), m, naug);
  const int r = g2.rdim;

  auto ga = ctx.global(arg.a, static_cast<std::ptrdiff_t>(m) * n);
  auto gb = ctx.global(arg.b, m);

  auto v_sh = ctx.template shared<Store>(m);
  auto w_sh = ctx.template shared<Store>(naug);
  auto part = ctx.template shared<Store>(naug * r);
  auto red = ctx.template shared<float>(r);
  auto head = ctx.template shared<float>(8);
  auto tau_sh = ctx.template shared<Store>(n);

  // ---- load the tile (paper Listing 4, with ragged-edge guards) ----
  ctx.set_panel(-1);
  ctx.tag(OpTag::load);
  auto A = ctx.template reg_tile<S>(g2.hreg, g2.wreg);
  for (int jj = 0; jj < g2.wreg; ++jj) {
    const int gj = g2.gcol(jj);
    for (int ii = 0; ii < g2.hreg; ++ii) {
      const int gi = g2.grow(ii);
      if (gi < m && gj < n)
        A.set(ii, jj, ga.ld(gi + static_cast<std::ptrdiff_t>(gj) * m));
      else if (gi < m && gj == n && aug)
        A.set(ii, jj, gb.ld(gi));
      else
        A.set(ii, jj, S(0.0f));
    }
  }
  co_await ctx.sync();

  const int ncols = (m > n) ? n : n - 1;

  for (int c = 0; c < ncols; ++c) {
    ctx.set_panel(c / r);

    // 1. Local norm partials over rows below the diagonal.
    ctx.tag(OpTag::form_hh);
    if (g2.tcol == c % r) {
      R sigma(0.0f);
      const int jloc = g2.lcol(c);
      for (int ii = g2.lrow_from(c + 1); ii < g2.hreg; ++ii)
        if (g2.grow(ii) < m) sigma = abs2_acc(A.get(ii, jloc), sigma);
      red.st(g2.trow, sigma);
    }
    co_await ctx.sync();

    // 2. Diagonal thread: serial reduction + reflector head.
    const bool diag = g2.trow == c % r && g2.tcol == c % r;
    if (diag) {
      R sigma(0.0f);
      for (int t = 0; t < r; ++t) sigma = red.ld(t) + sigma;
      const S alpha = A.get(g2.lrow(c), g2.lcol(c));
      const auto refl = make_reflector(alpha, sigma);
      store_head(head, refl);
      A.set(g2.lrow(c), g2.lcol(c), to_scalar(refl.beta, alpha, refl.skip));
      v_sh.st(c, S(1.0f));
      tau_sh.st(c, unless(refl.skip, [&] { return refl.tau; }));
    }
    co_await ctx.sync();

    // 3. Scale the column and publish the Householder vector.
    if (g2.tcol == c % r) {
      const S inv = load_head_inv<S>(head);
      const auto skip = load_head_skip(head);
      const int jloc = g2.lcol(c);
      for (int ii = g2.lrow_from(c + 1); ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi >= m) continue;
        const S v = unless(skip, [&] { return A.get(ii, jloc) * inv; });
        A.set(ii, jloc, v);
        v_sh.st(gi, v);
      }
    }
    co_await ctx.sync();

    // 4. Matrix-vector multiply: w = tau' * (v^H A_trailing).
    ctx.tag(OpTag::matvec);
    for (int jj = g2.lcol_from(c + 1); jj < g2.wreg; ++jj) {
      const int gj = g2.gcol(jj);
      if (gj >= naug) continue;
      S acc(0.0f);
      for (int ii = g2.lrow_from(c); ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < m) acc = mac_conj(v_sh.ld(gi), A.get(ii, jj), acc);
      }
      part.st(gj * r + g2.trow, acc);
    }
    co_await ctx.sync();
    // Serial reductions, one trailing column per thread, all columns in
    // parallel (the paper's cost model: one cost_red per column, "we assume
    // that there are at least as many threads as columns").
    {
      const S taup = unless(load_head_skip(head),
                            [&] { return load_head_applied_tau<S>(head); });
      for (int gj = c + 1 + ctx.tid(); gj < naug; gj += ctx.nthreads()) {
        S acc(0.0f);
        for (int t = 0; t < r; ++t) acc = part.ld(gj * r + t) + acc;
        w_sh.st(gj, taup * acc);
      }
    }
    co_await ctx.sync();

    // 5. Rank-1 trailing update: A -= v w.
    ctx.tag(OpTag::rank1);
    for (int jj = g2.lcol_from(c + 1); jj < g2.wreg; ++jj) {
      const int gj = g2.gcol(jj);
      if (gj >= naug) continue;
      const S wj = w_sh.ld(gj);
      for (int ii = g2.lrow_from(c); ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < m) A.sub(ii, jj, v_sh.ld(gi) * wj);
      }
    }
    co_await ctx.sync();
  }

  // ---- optional back-substitution: R x = y (y = Q^H b, the aug column) ----
  if (arg.solve) {
    ctx.set_panel(-1);
    ctx.tag(OpTag::other);
    for (int c = n - 1; c >= 0; --c) {
      // Publish R(0:c, c) and R(c,c).
      if (g2.tcol == c % r) {
        const int jloc = g2.lcol(c);
        for (int ii = 0; ii < g2.hreg; ++ii) {
          const int gi = g2.grow(ii);
          if (gi <= c) v_sh.st(gi, A.get(ii, jloc));
        }
      }
      co_await ctx.sync();
      // The thread owning y_c computes x_c.
      if (g2.owns(c, n)) {
        const S rcc = v_sh.ld(c);
        const S x = div_scalar(A.get(g2.lrow(c), g2.lcol(n)), rcc);
        A.set(g2.lrow(c), g2.lcol(n), x);
        w_sh.st(c, x);
      }
      co_await ctx.sync();
      // Eliminate x_c from the rows above.
      if (g2.tcol == n % r) {
        const S x = w_sh.ld(c);
        const int jloc = g2.lcol(n);
        for (int ii = 0; ii < g2.hreg; ++ii) {
          const int gi = g2.grow(ii);
          if (gi < c) A.sub(ii, jloc, v_sh.ld(gi) * x);
        }
      }
      co_await ctx.sync();
    }
  }

  // ---- store ----
  ctx.set_panel(-1);
  ctx.tag(OpTag::store);
  for (int jj = 0; jj < g2.wreg; ++jj) {
    const int gj = g2.gcol(jj);
    for (int ii = 0; ii < g2.hreg; ++ii) {
      const int gi = g2.grow(ii);
      if (gi < m && gj < n)
        ga.st(gi + static_cast<std::ptrdiff_t>(gj) * m, A.get(ii, jj));
      else if (gi < m && gj == n && aug)
        gb.st(gi, A.get(ii, jj));
    }
  }
  if (arg.taus != nullptr && ctx.tid() == 0) {
    auto gt = ctx.global(arg.taus, n);
    for (int c = 0; c < n; ++c) gt.st(c, c < ncols ? tau_sh.ld(c) : S(0.0f));
  }
}

// --- 1D layouts (real, solve form) for the Fig. 7 comparison ---------------
//
// 1D row cyclic: thread t owns rows i === t (mod p), each row kept whole in
// the thread's registers (which overflows the register budget for wide
// problems — part of why the layout loses). Column reductions (norms and the
// Householder matvec) need cross-thread communication over all rows; the
// matvec uses a two-stage (group leaders, then thread 0) shared-memory
// reduction over column chunks.
//
// 1D column cyclic: thread t owns columns j === t (mod p). The column
// operation is entirely local to one thread (serial), the trailing update is
// communication-free after v is published — but threads drop out as the
// factorization proceeds and back-substitution serializes.

struct Qr1DArgs {
  float* a = nullptr;
  float* b = nullptr;
  int n = 0;      // square systems only (Fig. 7 solves)
  int count = 0;
};

inline simt::Lane qr_solve_block_1drow(BlockCtx& ctx, const Qr1DArgs& arg) {
  const int k = ctx.block();
  if (k >= arg.count) co_return;
  const int n = arg.n, naug = n + 1, p = ctx.nthreads(), t = ctx.tid();
  const int rpt = (n + p - 1) / p;  // rows per thread
  constexpr int kChunk = 16;
  constexpr int kGroup = 16;

  auto ga = ctx.global(arg.a);
  auto gb = ctx.global(arg.b);
  const std::ptrdiff_t abase = static_cast<std::ptrdiff_t>(k) * n * n;
  const std::ptrdiff_t bbase = static_cast<std::ptrdiff_t>(k) * n;

  auto v_sh = ctx.shared<float>(n);
  auto x_sh = ctx.shared<float>(n);
  auto red = ctx.shared<float>(p);
  auto part = ctx.shared<float>(p * kChunk);
  auto head = ctx.shared<float>(8);

  ctx.tag(OpTag::load);
  auto A = ctx.reg_tile<gfloat>(rpt, naug);
  for (int ii = 0; ii < rpt; ++ii) {
    const int gi = t + ii * p;
    if (gi >= n) continue;
    for (int j = 0; j < n; ++j)
      A.set(ii, j, ga.ld(abase + gi + static_cast<std::ptrdiff_t>(j) * n));
    A.set(ii, n, gb.ld(bbase + gi));
  }
  co_await ctx.sync();

  for (int c = 0; c < n - 1; ++c) {
    // 1. Norm partials across all row-owning threads.
    ctx.tag(OpTag::form_hh);
    gfloat sigma(0.0f);
    for (int ii = 0; ii < rpt; ++ii) {
      const int gi = t + ii * p;
      if (gi > c && gi < n) sigma = abs2_acc(A.get(ii, c), sigma);
    }
    red.st(t, sigma);
    co_await ctx.sync();
    // 2. The owner of row c reduces serially over all p partials.
    if (t == c % p) {
      gfloat s(0.0f);
      for (int q = 0; q < p; ++q) s = red.ld(q) + s;
      const int lc = c / p;
      const auto refl = make_reflector(A.get(lc, c), s);
      store_head(head, refl);
      A.set(lc, c, to_scalar(refl.beta, A.get(lc, c), refl.skip));
      v_sh.st(c, gfloat(1.0f));
    }
    co_await ctx.sync();
    // 3. Scale and publish v.
    {
      const gfloat inv = load_head_inv<gfloat>(head);
      const bool skip = load_head_skip(head);
      for (int ii = 0; ii < rpt; ++ii) {
        const int gi = t + ii * p;
        if (gi > c && gi < n) {
          const gfloat v = skip ? gfloat(0.0f) : A.get(ii, c) * inv;
          A.set(ii, c, v);
          v_sh.st(gi, v);
        }
      }
    }
    co_await ctx.sync();
    // 4. Matvec over column chunks with a two-stage reduction.
    ctx.tag(OpTag::matvec);
    const gfloat taup = load_head_skip(head) ? gfloat(0.0f)
                                             : load_head_applied_tau<gfloat>(head);
    for (int j0 = c + 1; j0 < naug; j0 += kChunk) {
      const int jend = std::min(naug, j0 + kChunk);
      for (int j = j0; j < jend; ++j) {
        gfloat acc(0.0f);
        for (int ii = 0; ii < rpt; ++ii) {
          const int gi = t + ii * p;
          if (gi < c || gi >= n) continue;
          const gfloat vi = (gi == c) ? gfloat(1.0f) : A.get(ii, c);
          acc = gfma(vi, A.get(ii, j), acc);
        }
        part.st(t * kChunk + (j - j0), acc);
      }
      co_await ctx.sync();
      if (t % kGroup == 0) {
        for (int j = j0; j < jend; ++j) {
          gfloat acc(0.0f);
          for (int q = t; q < std::min(p, t + kGroup); ++q)
            acc = part.ld(q * kChunk + (j - j0)) + acc;
          part.st(t * kChunk + (j - j0), acc);
        }
      }
      co_await ctx.sync();
      if (t == 0) {
        for (int j = j0; j < jend; ++j) {
          gfloat acc(0.0f);
          for (int q = 0; q < p; q += kGroup)
            acc = part.ld(q * kChunk + (j - j0)) + acc;
          // Stage the final w_j in row 0 of `part`. Slot (j - j0) is group
          // 0's partial for this same j, which was read just above, so the
          // overwrite is safe.
          part.st(j - j0, taup * acc);
        }
      }
      co_await ctx.sync();
      // 5. Rank-1 update for this chunk.
      ctx.tag(OpTag::rank1);
      for (int ii = 0; ii < rpt; ++ii) {
        const int gi = t + ii * p;
        if (gi < c || gi >= n) continue;
        const gfloat vi = (gi == c) ? gfloat(1.0f) : A.get(ii, c);
        for (int j = j0; j < jend; ++j) A.sub(ii, j, vi * part.ld(j - j0));
      }
      co_await ctx.sync();
      ctx.tag(OpTag::matvec);
    }
  }

  // Back substitution: everything a row owner needs is local except x_c.
  ctx.tag(OpTag::other);
  for (int c = n - 1; c >= 0; --c) {
    if (t == c % p) {
      const int lc = c / p;
      const gfloat x = A.get(lc, n) / A.get(lc, c);
      A.set(lc, n, x);
      x_sh.st(c, x);
    }
    co_await ctx.sync();
    const gfloat x = x_sh.ld(c);
    for (int ii = 0; ii < rpt; ++ii) {
      const int gi = t + ii * p;
      if (gi < c) A.sub(ii, n, A.get(ii, c) * x);
    }
    co_await ctx.sync();
  }

  ctx.tag(OpTag::store);
  for (int ii = 0; ii < rpt; ++ii) {
    const int gi = t + ii * p;
    if (gi >= n) continue;
    for (int j = 0; j < n; ++j)
      ga.st(abase + gi + static_cast<std::ptrdiff_t>(j) * n, A.get(ii, j));
    gb.st(bbase + gi, A.get(ii, n));
  }
}

inline simt::Lane qr_solve_block_1dcol(BlockCtx& ctx, const Qr1DArgs& arg) {
  const int k = ctx.block();
  if (k >= arg.count) co_return;
  const int n = arg.n, naug = n + 1, p = ctx.nthreads(), t = ctx.tid();
  const int cpt = (naug + p - 1) / p;  // columns per thread

  auto ga = ctx.global(arg.a);
  auto gb = ctx.global(arg.b);
  const std::ptrdiff_t abase = static_cast<std::ptrdiff_t>(k) * n * n;
  const std::ptrdiff_t bbase = static_cast<std::ptrdiff_t>(k) * n;

  auto v_sh = ctx.shared<float>(n);
  auto head = ctx.shared<float>(8);

  ctx.tag(OpTag::load);
  auto A = ctx.reg_tile<gfloat>(n, cpt);
  for (int jj = 0; jj < cpt; ++jj) {
    const int gj = t + jj * p;
    if (gj < n)
      for (int i = 0; i < n; ++i)
        A.set(i, jj, ga.ld(abase + i + static_cast<std::ptrdiff_t>(gj) * n));
    else if (gj == n)
      for (int i = 0; i < n; ++i) A.set(i, jj, gb.ld(bbase + i));
  }
  co_await ctx.sync();

  for (int c = 0; c < n - 1; ++c) {
    // 1. Entire column operation local to the owning thread.
    ctx.tag(OpTag::form_hh);
    if (t == c % p) {
      const int lc = c / p;
      gfloat sigma(0.0f);
      for (int i = c + 1; i < n; ++i) sigma = abs2_acc(A.get(i, lc), sigma);
      const auto refl = make_reflector(A.get(c, lc), sigma);
      store_head(head, refl);
      A.set(c, lc, to_scalar(refl.beta, A.get(c, lc), refl.skip));
      v_sh.st(c, gfloat(1.0f));
      for (int i = c + 1; i < n; ++i) {
        const gfloat v = refl.skip ? gfloat(0.0f) : A.get(i, lc) * refl.inv;
        A.set(i, lc, v);
        v_sh.st(i, v);
      }
    }
    co_await ctx.sync();
    // 2. Matvec + rank-1 fused: no cross-thread reduction needed.
    ctx.tag(OpTag::matvec);
    const gfloat taup = load_head_skip(head) ? gfloat(0.0f)
                                             : load_head_applied_tau<gfloat>(head);
    for (int jj = 0; jj < cpt; ++jj) {
      const int gj = t + jj * p;
      if (gj <= c || gj >= naug) continue;
      gfloat w(0.0f);
      for (int i = c; i < n; ++i) w = gfma(v_sh.ld(i), A.get(i, jj), w);
      w = w * taup;
      ctx.tag(OpTag::rank1);
      for (int i = c; i < n; ++i) A.sub(i, jj, v_sh.ld(i) * w);
      ctx.tag(OpTag::matvec);
    }
    co_await ctx.sync();
  }

  // Back substitution: serialized on the thread owning the augmented column.
  ctx.tag(OpTag::other);
  for (int c = n - 1; c >= 0; --c) {
    if (t == c % p) {
      const int lc = c / p;
      for (int i = 0; i <= c; ++i) v_sh.st(i, A.get(i, lc));
    }
    co_await ctx.sync();
    if (t == n % p) {
      const int la = n / p;
      const gfloat x = A.get(c, la) / v_sh.ld(c);
      A.set(c, la, x);
      for (int i = 0; i < c; ++i) A.sub(i, la, v_sh.ld(i) * x);
    }
    co_await ctx.sync();
  }

  ctx.tag(OpTag::store);
  for (int jj = 0; jj < cpt; ++jj) {
    const int gj = t + jj * p;
    if (gj < n)
      for (int i = 0; i < n; ++i)
        ga.st(abase + i + static_cast<std::ptrdiff_t>(gj) * n, A.get(i, jj));
    else if (gj == n)
      for (int i = 0; i < n; ++i) gb.st(bbase + i, A.get(i, jj));
  }
}

}  // namespace regla::core::detail
