#include "core/per_block_ext.h"

#include "common/error.h"
#include "core/detail/ext_block_kernels.h"
#include "core/per_block.h"
#include "model/flops.h"
#include "model/per_block_model.h"

namespace regla::core {

GpuBatchResult cholesky_per_block(regla::simt::Device& dev, BatchF& batch,
                                  std::vector<int>* notspd, int threads) {
  const int n = batch.cols();
  REGLA_CHECK(batch.rows() == n);
  if (threads == 0) threads = model::choose_block_threads(dev.config(), n, n);
  if (notspd != nullptr) notspd->assign(batch.count(), 0);

  detail::CholBlockArgs arg;
  arg.a = batch.data();
  arg.n = n;
  arg.count = batch.count();
  arg.notspd = notspd ? notspd->data() : nullptr;

  simt::LaunchSpec spec;
  spec.blocks = batch.count();
  spec.threads = threads;
  spec.regs_per_thread = per_block_regs(dev.config(), n, n, threads, 1);
  spec.name = "cholesky_per_block";
  auto res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
    return detail::cholesky_block_2d(ctx, arg);
  });
  return GpuBatchResult{res, model::cholesky_flops(n) * batch.count()};
}

GpuBatchResult trsm_lower_per_block(regla::simt::Device& dev, const BatchF& l,
                                    BatchF& b, std::vector<int>* singular,
                                    int threads) {
  const int n = l.cols();
  REGLA_CHECK(l.rows() == n);
  REGLA_CHECK(b.count() == l.count() && b.rows() == n && b.cols() == 1);
  if (threads == 0) threads = n <= 64 ? 64 : 256;
  const int cpt = (n + threads - 1) / threads;
  REGLA_CHECK_MSG(n * cpt <= simt::kMaxTileElems,
                  "trsm: n too large for one block");
  if (singular != nullptr) singular->assign(l.count(), 0);

  detail::TrsmBlockArgs arg;
  arg.l = l.data();
  arg.b = b.data();
  arg.n = n;
  arg.count = l.count();
  arg.singular = singular ? singular->data() : nullptr;

  simt::LaunchSpec spec;
  spec.blocks = l.count();
  spec.threads = threads;
  // The column-cyclic tile averages n*cpt/2 live words per thread (lower
  // triangle), as in the normal-eq solve.
  spec.regs_per_thread =
      std::min(dev.config().max_regs_per_thread,
               n * cpt / 2 + dev.config().reg_overhead_per_thread);
  spec.name = "trsm_lower_per_block";
  auto res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
    return detail::trsm_lower_block(ctx, arg);
  });
  return GpuBatchResult{res, model::trsm_flops(n) * l.count()};
}

GpuBatchResult lu_pivot_per_block(regla::simt::Device& dev, BatchF& batch,
                                  BatchedMatrix<int>* pivots,
                                  std::vector<int>* singular, int threads) {
  const int n = batch.cols();
  REGLA_CHECK(batch.rows() == n);
  if (threads == 0) threads = model::choose_block_threads(dev.config(), n, n);
  if (pivots != nullptr) *pivots = BatchedMatrix<int>(batch.count(), n, 1);
  if (singular != nullptr) singular->assign(batch.count(), 0);

  detail::LuPivBlockArgs arg;
  arg.a = batch.data();
  arg.piv = pivots ? pivots->data() : nullptr;
  arg.n = n;
  arg.count = batch.count();
  arg.singular = singular ? singular->data() : nullptr;

  simt::LaunchSpec spec;
  spec.blocks = batch.count();
  spec.threads = threads;
  spec.regs_per_thread = per_block_regs(dev.config(), n, n, threads, 1);
  spec.name = "lu_pivot_per_block";
  auto res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
    return detail::lu_pivot_block_2d(ctx, arg);
  });
  return GpuBatchResult{res, model::lu_flops(n) * batch.count()};
}

namespace {

template <typename S, typename Batch>
GpuBatchResult normal_eq_impl(regla::simt::Device& dev, const Batch& r,
                              const Batch& v, Batch& w, int threads,
                              double flops_per_problem) {
  using Store = typename detail::StorageOf<S>::type;
  const int n = r.cols();
  REGLA_CHECK(r.rows() == n);
  REGLA_CHECK(v.count() == r.count() && v.rows() == n && v.cols() == 1);
  w = Batch(r.count(), n, 1);

  constexpr int wpe = static_cast<int>(sizeof(Store) / 4);
  if (threads == 0) threads = n <= 64 ? 64 : 256;
  const int cpt = (n + threads - 1) / threads;
  REGLA_CHECK_MSG(n * cpt * wpe <= simt::kMaxTileElems * wpe,
                  "normal-eq solve: n too large for one block");

  detail::NormalEqArgs<S> arg;
  arg.r = r.data();
  arg.v = v.data();
  arg.w = w.data();
  arg.n = n;
  arg.count = r.count();

  simt::LaunchSpec spec;
  spec.blocks = r.count();
  spec.threads = threads;
  spec.regs_per_thread =
      std::min(dev.config().max_regs_per_thread,
               n * cpt * wpe / 2 + dev.config().reg_overhead_per_thread);
  spec.name = "normal_eq_solve_per_block";
  auto res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
    return detail::normal_eq_solve_block<S>(ctx, arg);
  });
  return GpuBatchResult{res, flops_per_problem * r.count()};
}

}  // namespace

GpuBatchResult normal_eq_solve_per_block(regla::simt::Device& dev,
                                         const BatchF& r, const BatchF& v,
                                         BatchF& w, int threads) {
  const double n = r.cols();
  return normal_eq_impl<simt::gfloat>(dev, r, v, w, threads, 4.0 * n * n);
}

GpuBatchResult normal_eq_solve_per_block(regla::simt::Device& dev,
                                         const BatchC& r, const BatchC& v,
                                         BatchC& w, int threads) {
  const double n = r.cols();
  return normal_eq_impl<simt::gcomplex>(dev, r, v, w, threads, 16.0 * n * n);
}

namespace {

template <typename S, typename Batch>
GpuBatchResult apply_qt_impl(regla::simt::Device& dev, const Batch& qr,
                             const Batch& taus, Batch& b, int threads,
                             int flops_scale) {
  const int m = qr.rows(), n = qr.cols();
  REGLA_CHECK(taus.count() == qr.count() && taus.rows() == n);
  REGLA_CHECK(b.count() == qr.count() && b.rows() == m && b.cols() == 1);
  if (threads == 0) threads = model::choose_block_threads(dev.config(), m, n);

  detail::ApplyQtArgs<S> arg;
  arg.qr = qr.data();
  arg.taus = taus.data();
  arg.b = b.data();
  arg.m = m;
  arg.n = n;
  arg.count = qr.count();

  constexpr int wpe = static_cast<int>(sizeof(S) / 4);
  simt::LaunchSpec spec;
  spec.blocks = qr.count();
  spec.threads = threads;
  spec.regs_per_thread = per_block_regs(dev.config(), m, n, threads, wpe);
  spec.name = "apply_qt_per_block";
  auto res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
    return detail::apply_qt_block_2d<S>(ctx, arg);
  });
  const double flops =
      flops_scale * (2.0 * m * n - static_cast<double>(n) * n) * qr.count();
  return GpuBatchResult{res, flops};
}

}  // namespace

GpuBatchResult apply_qt_per_block(regla::simt::Device& dev, const BatchF& qr,
                                  const BatchF& taus, BatchF& b, int threads) {
  return apply_qt_impl<simt::gfloat>(dev, qr, taus, b, threads, 2);
}

GpuBatchResult apply_qt_per_block(regla::simt::Device& dev, const BatchC& qr,
                                  const BatchC& taus, BatchC& b, int threads) {
  return apply_qt_impl<simt::gcomplex>(dev, qr, taus, b, threads, 8);
}

}  // namespace regla::core
