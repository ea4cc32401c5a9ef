#include "core/eig_jacobi.h"

#include "common/error.h"
#include "simt/simt.h"

namespace regla::core {

using simt::BlockCtx;
using simt::gfloat;
using simt::OpTag;

GpuBatchResult eig_sym_per_thread(regla::simt::Device& dev, BatchF& batch,
                                  BatchF& eigenvalues, int sweeps) {
  const int n = batch.cols();
  REGLA_CHECK(batch.rows() == n && n <= simt::kMaxTileDim);
  eigenvalues = BatchF(batch.count(), n, 1);

  simt::LaunchSpec spec;
  spec.threads = std::min(kPerThreadBlockSize, batch.count());
  spec.blocks = (batch.count() + spec.threads - 1) / spec.threads;
  spec.regs_per_thread =
      std::min(dev.config().max_regs_per_thread,
               n * n + dev.config().reg_overhead_per_thread);
  spec.name = "eig_sym_per_thread";

  float* data = batch.data();
  float* ev = eigenvalues.data();
  const int count = batch.count();

  auto res = dev.launch(spec, [=](BlockCtx& ctx) -> simt::Lane {
    const int k = ctx.block() * ctx.nthreads() + ctx.tid();
    if (k >= count) co_return;
    auto g = ctx.global(data);
    const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(k) * n * n;

    ctx.tag(OpTag::load);
    auto A = ctx.reg_tile<gfloat>(n, n);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        A.set(i, j, g.ld(base + i + static_cast<std::ptrdiff_t>(j) * n));

    ctx.tag(OpTag::other);
    for (int s = 0; s < sweeps; ++s) {
      for (int p = 0; p < n - 1; ++p) {
        for (int q = p + 1; q < n; ++q) {
          const gfloat apq = A.get(p, q);
          if (apq.value() == 0.0f) continue;
          // Jacobi rotation annihilating A(p,q) (Golub & Van Loan 8.4).
          const gfloat theta =
              (A.get(q, q) - A.get(p, p)) / (gfloat(2.0f) * apq);
          const gfloat t_abs =
              gfloat(1.0f) /
              (gabs(theta) + gsqrt(gfma(theta, theta, gfloat(1.0f))));
          const gfloat t = theta.value() >= 0.0f ? t_abs : -t_abs;
          const gfloat c = gfloat(1.0f) / gsqrt(gfma(t, t, gfloat(1.0f)));
          const gfloat sn = t * c;
          for (int i = 0; i < n; ++i) {
            const gfloat aip = A.get(i, p);
            const gfloat aiq = A.get(i, q);
            A.set(i, p, gfma(c, aip, -(sn * aiq)));
            A.set(i, q, gfma(sn, aip, c * aiq));
          }
          for (int i = 0; i < n; ++i) {
            const gfloat api = A.get(p, i);
            const gfloat aqi = A.get(q, i);
            A.set(p, i, gfma(c, api, -(sn * aqi)));
            A.set(q, i, gfma(sn, api, c * aqi));
          }
        }
      }
    }

    // Insertion-sort the diagonal (registers only) and store ascending.
    ctx.tag(OpTag::store);
    gfloat diag[simt::kMaxTileDim];
    for (int i = 0; i < n; ++i) diag[i] = A.get(i, i);
    for (int i = 1; i < n; ++i) {
      const gfloat v = diag[i];
      int j = i - 1;
      while (j >= 0 && diag[j].value() > v.value()) {
        diag[j + 1] = diag[j];
        --j;
      }
      diag[j + 1] = v;
    }
    auto ge = ctx.global(ev);
    for (int i = 0; i < n; ++i)
      ge.st(static_cast<std::ptrdiff_t>(k) * n + i, diag[i]);
  });

  // ~8 n^3 per sweep (two-sided rotations over n(n-1)/2 pairs of length n).
  const double flops = 8.0 * n * n * n * sweeps * batch.count();
  return GpuBatchResult{res, flops};
}

}  // namespace regla::core
