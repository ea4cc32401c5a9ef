#include "core/per_thread.h"

#include "common/error.h"
#include "model/flops.h"
#include "simt/simt.h"

namespace regla::core {

using simt::BlockCtx;
using simt::gfloat;
using simt::Global;
using simt::OpTag;
using simt::RegTile;

namespace {

/// Registers a per-thread kernel needs: the whole matrix plus bookkeeping.
int per_thread_regs(const simt::DeviceConfig& cfg, int tile_words) {
  return std::min(cfg.max_regs_per_thread,
                  tile_words + cfg.reg_overhead_per_thread);
}

simt::LaunchSpec per_thread_spec(const simt::DeviceConfig& cfg, int count,
                                 int tile_words, const char* name) {
  simt::LaunchSpec spec;
  spec.threads = std::min(kPerThreadBlockSize, count);
  spec.blocks = (count + spec.threads - 1) / spec.threads;
  spec.regs_per_thread = per_thread_regs(cfg, tile_words);
  spec.name = name;
  return spec;
}

/// Load this thread's matrix from global memory into its register tile.
void load_tile(BlockCtx& ctx, Global<float>& g, std::ptrdiff_t base,
               RegTile<gfloat>& a, int m, int n) {
  ctx.tag(OpTag::load);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      a.set(i, j, g.ld(base + i + static_cast<std::ptrdiff_t>(j) * m));
}

void store_tile(BlockCtx& ctx, Global<float>& g, std::ptrdiff_t base,
                const RegTile<gfloat>& a, int m, int n) {
  ctx.tag(OpTag::store);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      g.st(base + i + static_cast<std::ptrdiff_t>(j) * m, a.get(i, j));
}

}  // namespace

GpuBatchResult qr_per_thread(regla::simt::Device& dev, BatchF& batch,
                             BatchF* taus) {
  const int n = batch.cols();
  const int m = batch.rows();
  REGLA_CHECK_MSG(m == n, "per-thread QR driver expects square problems");
  REGLA_CHECK(n * n <= simt::kMaxTileElems);
  if (taus != nullptr) *taus = BatchF(batch.count(), n, 1);

  const auto spec = per_thread_spec(dev.config(), batch.count(), n * n,
                                    "qr_per_thread");
  float* data = batch.data();
  float* tau_data = taus ? taus->data() : nullptr;
  const int count = batch.count();

  auto result = dev.launch(spec, [=](BlockCtx& ctx) -> simt::Lane {
    const int k = ctx.block() * ctx.nthreads() + ctx.tid();
    if (k >= count) co_return;
    auto g = ctx.global(data);
    const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(k) * n * n;
    auto a = ctx.reg_tile<gfloat>(n, n);
    load_tile(ctx, g, base, a, n, n);

    ctx.tag(OpTag::other);
    gfloat tau_col[64];  // n*n <= kMaxTileElems bounds n at 32
    for (int c = 0; c < n; ++c) {
      // Column norm^2 below (and including) the diagonal.
      gfloat sigma = 0.0f;
      for (int i = c + 1; i < n; ++i) sigma = gfma(a.get(i, c), a.get(i, c), sigma);
      const gfloat alpha = a.get(c, c);
      if (sigma.value() == 0.0f) {
        tau_col[c] = 0.0f;
        continue;
      }
      gfloat beta = gsqrt(gfma(alpha, alpha, sigma));
      if (alpha.value() > 0.0f) beta = -beta;
      tau_col[c] = (beta - alpha) / beta;
      const gfloat inv = gfloat(1.0f) / (alpha - beta);
      for (int i = c + 1; i < n; ++i) a.scale(i, c, inv);
      a.set(c, c, beta);
      // Apply H = I - tau v v^T to the trailing columns.
      for (int j = c + 1; j < n; ++j) {
        gfloat w = a.get(c, j);
        for (int i = c + 1; i < n; ++i) w = gfma(a.get(i, c), a.get(i, j), w);
        w = w * tau_col[c];
        a.sub(c, j, w);
        for (int i = c + 1; i < n; ++i) a.sub(i, j, a.get(i, c) * w);
      }
    }

    store_tile(ctx, g, base, a, n, n);
    if (tau_data != nullptr) {
      auto gt = ctx.global(tau_data);
      for (int c = 0; c < n; ++c)
        gt.st(static_cast<std::ptrdiff_t>(k) * n + c, tau_col[c]);
    }
  });

  return GpuBatchResult{result, model::qr_flops(n, n) * batch.count()};
}

GpuBatchResult lu_per_thread(regla::simt::Device& dev, BatchF& batch) {
  const int n = batch.cols();
  REGLA_CHECK_MSG(batch.rows() == n, "LU expects square matrices");
  REGLA_CHECK(n * n <= simt::kMaxTileElems);

  const auto spec = per_thread_spec(dev.config(), batch.count(), n * n,
                                    "lu_per_thread");
  float* data = batch.data();
  const int count = batch.count();

  auto result = dev.launch(spec, [=](BlockCtx& ctx) -> simt::Lane {
    const int k = ctx.block() * ctx.nthreads() + ctx.tid();
    if (k >= count) co_return;
    auto g = ctx.global(data);
    const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(k) * n * n;
    auto a = ctx.reg_tile<gfloat>(n, n);
    load_tile(ctx, g, base, a, n, n);

    ctx.tag(OpTag::other);
    for (int c = 0; c < n - 1; ++c) {
      const gfloat inv = gfloat(1.0f) / a.get(c, c);
      for (int i = c + 1; i < n; ++i) a.scale(i, c, inv);
      for (int j = c + 1; j < n; ++j) {
        const gfloat u = a.get(c, j);
        for (int i = c + 1; i < n; ++i) a.sub(i, j, a.get(i, c) * u);
      }
    }

    store_tile(ctx, g, base, a, n, n);
  });

  return GpuBatchResult{result, model::lu_flops(n) * batch.count()};
}

GpuBatchResult gj_solve_per_thread(regla::simt::Device& dev, BatchF& a,
                                   BatchF& b, std::vector<int>* flags) {
  const int n = a.cols();
  REGLA_CHECK(a.rows() == n && b.rows() == n && b.cols() == 1);
  REGLA_CHECK(a.count() == b.count());
  REGLA_CHECK(n * (n + 1) <= simt::kMaxTileElems);
  if (flags != nullptr) flags->assign(a.count(), 0);

  const auto spec = per_thread_spec(dev.config(), a.count(), n * (n + 1),
                                    "gj_solve_per_thread");
  float* a_data = a.data();
  float* b_data = b.data();
  int* flag_data = flags ? flags->data() : nullptr;
  const int count = a.count();

  auto result = dev.launch(spec, [=](BlockCtx& ctx) -> simt::Lane {
    const int k = ctx.block() * ctx.nthreads() + ctx.tid();
    if (k >= count) co_return;
    auto ga = ctx.global(a_data);
    auto gb = ctx.global(b_data);
    const std::ptrdiff_t abase = static_cast<std::ptrdiff_t>(k) * n * n;
    const std::ptrdiff_t bbase = static_cast<std::ptrdiff_t>(k) * n;

    // Augmented tile [A | b]: the paper attaches b to the right of A.
    auto t = ctx.reg_tile<gfloat>(n, n + 1);
    ctx.tag(OpTag::load);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        t.set(i, j, ga.ld(abase + i + static_cast<std::ptrdiff_t>(j) * n));
    for (int i = 0; i < n; ++i) t.set(i, n, gb.ld(bbase + i));

    ctx.tag(OpTag::other);
    bool solved = true;
    for (int c = 0; c < n; ++c) {
      if (t.get(c, c).value() == 0.0f) { solved = false; break; }
      const gfloat inv = gfloat(1.0f) / t.get(c, c);
      for (int j = c; j <= n; ++j) t.scale(c, j, inv);
      for (int i = 0; i < n; ++i) {
        if (i == c) continue;
        const gfloat f = t.get(i, c);
        for (int j = c; j <= n; ++j) t.sub(i, j, f * t.get(c, j));
      }
    }

    ctx.tag(OpTag::store);
    for (int i = 0; i < n; ++i) gb.st(bbase + i, t.get(i, n));
    if (flag_data != nullptr && !solved) {
      auto gf = ctx.global(flag_data);
      gf.st(k, 1);
    }
  });

  return GpuBatchResult{result, model::gj_flops(n) * a.count()};
}

}  // namespace regla::core
