#include "core/gemm_block.h"

#include "common/error.h"
#include "core/layout.h"
#include "core/per_block.h"
#include "model/per_block_model.h"
#include "simt/simt.h"

namespace regla::core {

using simt::BlockCtx;
using simt::gfloat;
using simt::OpTag;

GpuBatchResult gemm_per_block(regla::simt::Device& dev, const BatchF& a,
                              const BatchF& b, BatchF& c, int threads) {
  const int m = a.rows(), kk = a.cols(), n = b.cols();
  REGLA_CHECK(b.rows() == kk);
  REGLA_CHECK(a.count() == b.count());
  c = BatchF(a.count(), m, n);
  if (threads == 0) threads = model::choose_block_threads(dev.config(), m, n);

  const float* a_data = a.data();
  const float* b_data = b.data();
  float* c_data = c.data();
  const int count = a.count();

  simt::LaunchSpec spec;
  spec.blocks = count;
  spec.threads = threads;
  spec.regs_per_thread = per_block_regs(dev.config(), m, n, threads, 1);
  spec.name = "gemm_per_block";

  auto res = dev.launch(spec, [=](BlockCtx& ctx) -> simt::Lane {
    const int kidx = ctx.block();
    if (kidx >= count) co_return;
    Grid2D g2(ctx.tid(), ctx.nthreads(), m, n);
    auto ga = ctx.global(a_data);
    auto gb = ctx.global(b_data);
    auto gc = ctx.global(c_data);
    const std::ptrdiff_t abase = static_cast<std::ptrdiff_t>(kidx) * m * kk;
    const std::ptrdiff_t bbase = static_cast<std::ptrdiff_t>(kidx) * kk * n;
    const std::ptrdiff_t cbase = static_cast<std::ptrdiff_t>(kidx) * m * n;

    auto acol = ctx.shared<float>(m);
    auto brow = ctx.shared<float>(n);

    auto C = ctx.reg_tile<gfloat>(g2.hreg, g2.wreg);
    for (int jj = 0; jj < g2.wreg; ++jj)
      for (int ii = 0; ii < g2.hreg; ++ii) C.set(ii, jj, gfloat(0.0f));

    ctx.tag(OpTag::other);
    for (int l = 0; l < kk; ++l) {
      // Cooperatively stage A(:, l) and B(l, :) in shared memory.
      ctx.tag(OpTag::load);
      for (int i = ctx.tid(); i < m; i += ctx.nthreads())
        acol.st(i, ga.ld(abase + i + static_cast<std::ptrdiff_t>(l) * m));
      for (int j = ctx.tid(); j < n; j += ctx.nthreads())
        brow.st(j, gb.ld(bbase + l + static_cast<std::ptrdiff_t>(j) * kk));
      co_await ctx.sync();
      // Rank-1 accumulation into the register tile.
      ctx.tag(OpTag::rank1);
      for (int jj = 0; jj < g2.wreg; ++jj) {
        const int gj = g2.gcol(jj);
        if (gj >= n) continue;
        const gfloat bj = brow.ld(gj);
        for (int ii = 0; ii < g2.hreg; ++ii) {
          const int gi = g2.grow(ii);
          if (gi < m) C.set(ii, jj, gfma(acol.ld(gi), bj, C.get(ii, jj)));
        }
      }
      co_await ctx.sync();
    }

    ctx.tag(OpTag::store);
    for (int jj = 0; jj < g2.wreg; ++jj) {
      const int gj = g2.gcol(jj);
      for (int ii = 0; ii < g2.hreg; ++ii) {
        const int gi = g2.grow(ii);
        if (gi < m && gj < n)
          gc.st(cbase + gi + static_cast<std::ptrdiff_t>(gj) * m, C.get(ii, jj));
      }
    }
  });

  const double flops = 2.0 * m * n * kk * count;
  return GpuBatchResult{res, flops};
}

}  // namespace regla::core
