#include "core/per_block.h"

#include "common/error.h"
#include "core/detail/lugj_block_kernels.h"
#include "core/detail/qr_block_kernels.h"
#include "model/flops.h"
#include "model/per_block_model.h"

namespace regla::core {

namespace {

int resolve_threads(const simt::DeviceConfig& cfg, const BlockOptions& opt,
                    int m, int n) {
  if (opt.threads > 0) return opt.threads;
  return model::choose_block_threads(cfg, m, n);
}

simt::LaunchSpec block_spec(const simt::DeviceConfig& cfg, int count,
                            int threads, int m, int naug, int words_per_elem,
                            const char* name) {
  simt::LaunchSpec spec;
  spec.blocks = count;
  spec.threads = threads;
  spec.regs_per_thread = per_block_regs(cfg, m, naug, threads, words_per_elem);
  spec.name = name;
  return spec;
}

/// The real 2D-cyclic QR kernel with its replay-group form: replayed
/// blocks run eight problems per lane step on gfloat8 (DESIGN.md §13).
simt::LaunchResult launch_qr_2d(simt::Device& dev, const simt::LaunchSpec& spec,
                                const detail::QrBlockArgs<float>& arg) {
  return dev.launch(
      spec,
      [arg](simt::BlockCtx& ctx) {
        return detail::qr_block_2d<simt::gfloat>(ctx, arg);
      },
      [arg](simt::GroupCtx& ctx) {
        return detail::qr_block_2d<simt::gfloat8>(ctx, arg);
      });
}

}  // namespace

int per_block_regs(const simt::DeviceConfig& cfg, int m, int naug, int threads,
                   int words_per_elem) {
  const int rdim =
      static_cast<int>(std::lround(std::sqrt(static_cast<double>(threads))));
  const int hreg = (m + rdim - 1) / rdim;
  const int wreg = (naug + rdim - 1) / rdim;
  return std::min(cfg.max_regs_per_thread,
                  regs_for_tile(hreg, wreg, words_per_elem,
                                cfg.reg_overhead_per_thread));
}

GpuBatchResult qr_per_block(regla::simt::Device& dev, BatchF& batch,
                            BatchF* taus, BlockOptions opt) {
  const int m = batch.rows(), n = batch.cols();
  REGLA_CHECK(m >= n);
  REGLA_CHECK_MSG(opt.layout == Layout::cyclic2d,
                  "plain QR factorization is implemented for the 2D layout");
  const int threads = resolve_threads(dev.config(), opt, m, n);
  if (taus != nullptr) *taus = BatchF(batch.count(), n, 1);

  detail::QrBlockArgs<float> arg;
  arg.a = batch.data();
  arg.taus = taus ? taus->data() : nullptr;
  arg.m = m;
  arg.n = n;
  arg.count = batch.count();

  const auto spec = block_spec(dev.config(), batch.count(), threads, m, n, 1,
                               "qr_per_block");
  auto res = launch_qr_2d(dev, spec, arg);
  return GpuBatchResult{res, model::qr_flops(m, n) * batch.count()};
}

GpuBatchResult qr_per_block(regla::simt::Device& dev, BatchC& batch,
                            BatchC* taus, BlockOptions opt) {
  const int m = batch.rows(), n = batch.cols();
  REGLA_CHECK(m >= n);
  REGLA_CHECK_MSG(opt.layout == Layout::cyclic2d,
                  "complex QR is implemented for the 2D layout");
  const int threads = resolve_threads(dev.config(), opt, m, n);
  if (taus != nullptr) *taus = BatchC(batch.count(), n, 1);

  detail::QrBlockArgs<std::complex<float>> arg;
  arg.a = batch.data();
  arg.taus = taus ? taus->data() : nullptr;
  arg.m = m;
  arg.n = n;
  arg.count = batch.count();

  const auto spec = block_spec(dev.config(), batch.count(), threads, m, n, 2,
                               "cqr_per_block");
  auto res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
    return detail::qr_block_2d<simt::gcomplex>(ctx, arg);
  });
  return GpuBatchResult{res, model::cqr_flops(m, n) * batch.count()};
}

GpuBatchResult qr_solve_per_block(regla::simt::Device& dev, BatchF& a,
                                  BatchF& b, BlockOptions opt) {
  const int n = a.cols();
  REGLA_CHECK(a.rows() == n && b.rows() == n && b.cols() == 1);
  REGLA_CHECK(a.count() == b.count());
  const int threads = resolve_threads(dev.config(), opt, n, n + 1);

  simt::LaunchResult res;
  if (opt.layout == Layout::cyclic2d) {
    detail::QrBlockArgs<float> arg;
    arg.a = a.data();
    arg.b = b.data();
    arg.m = n;
    arg.n = n;
    arg.count = a.count();
    arg.solve = true;
    const auto spec = block_spec(dev.config(), a.count(), threads, n, n + 1, 1,
                                 "qr_solve_per_block_2d");
    res = launch_qr_2d(dev, spec, arg);
  } else {
    detail::Qr1DArgs arg;
    arg.a = a.data();
    arg.b = b.data();
    arg.n = n;
    arg.count = a.count();
    simt::LaunchSpec spec;
    spec.blocks = a.count();
    spec.threads = threads;
    spec.name = opt.layout == Layout::row1d ? "qr_solve_per_block_1drow"
                                            : "qr_solve_per_block_1dcol";
    if (opt.layout == Layout::row1d) {
      // One whole (augmented) row per owned row index.
      const int rpt = (n + threads - 1) / threads;
      spec.regs_per_thread =
          std::min(dev.config().max_regs_per_thread,
                   rpt * (n + 1) + dev.config().reg_overhead_per_thread);
      res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
        return detail::qr_solve_block_1drow(ctx, arg);
      });
    } else {
      const int cpt = (n + 2 + threads - 1) / threads;
      spec.regs_per_thread =
          std::min(dev.config().max_regs_per_thread,
                   cpt * n + dev.config().reg_overhead_per_thread);
      res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
        return detail::qr_solve_block_1dcol(ctx, arg);
      });
    }
  }
  return GpuBatchResult{res, model::ls_flops(n, n) * a.count()};
}

GpuBatchResult lu_per_block(regla::simt::Device& dev, BatchF& batch,
                            std::vector<int>* notsolved, BlockOptions opt) {
  const int n = batch.cols();
  REGLA_CHECK(batch.rows() == n);
  REGLA_CHECK_MSG(opt.layout == Layout::cyclic2d,
                  "per-block LU is implemented for the 2D layout");
  const int threads = resolve_threads(dev.config(), opt, n, n);
  if (notsolved != nullptr) notsolved->assign(batch.count(), 0);

  detail::LuBlockArgs arg;
  arg.a = batch.data();
  arg.n = n;
  arg.count = batch.count();
  arg.notsolved = notsolved ? notsolved->data() : nullptr;

  const auto spec = block_spec(dev.config(), batch.count(), threads, n, n, 1,
                               "lu_per_block");
  auto res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
    return detail::lu_block_2d(ctx, arg);
  });
  return GpuBatchResult{res, model::lu_flops(n) * batch.count()};
}

GpuBatchResult gj_solve_per_block(regla::simt::Device& dev, BatchF& a, BatchF& b,
                                  std::vector<int>* notsolved, BlockOptions opt) {
  const int n = a.cols();
  REGLA_CHECK(a.rows() == n && b.rows() == n && b.cols() == 1);
  REGLA_CHECK(a.count() == b.count());
  REGLA_CHECK_MSG(opt.layout == Layout::cyclic2d,
                  "per-block Gauss-Jordan is implemented for the 2D layout");
  const int threads = resolve_threads(dev.config(), opt, n, n + 1);
  if (notsolved != nullptr) notsolved->assign(a.count(), 0);

  detail::GjBlockArgs arg;
  arg.a = a.data();
  arg.b = b.data();
  arg.n = n;
  arg.count = a.count();
  arg.notsolved = notsolved ? notsolved->data() : nullptr;

  const auto spec = block_spec(dev.config(), a.count(), threads, n, n + 1, 1,
                               "gj_solve_per_block");
  auto res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
    return detail::gj_block_2d(ctx, arg);
  });
  return GpuBatchResult{res, model::gj_flops(n) * a.count()};
}

GpuBatchResult ls_per_block(regla::simt::Device& dev, BatchF& a, BatchF& b,
                            BlockOptions opt) {
  const int m = a.rows(), n = a.cols();
  REGLA_CHECK(m > n);
  REGLA_CHECK(b.rows() == m && b.cols() == 1 && a.count() == b.count());
  REGLA_CHECK_MSG(opt.layout == Layout::cyclic2d,
                  "least squares is implemented for the 2D layout");
  const int threads = resolve_threads(dev.config(), opt, m, n + 1);

  detail::QrBlockArgs<float> arg;
  arg.a = a.data();
  arg.b = b.data();
  arg.m = m;
  arg.n = n;
  arg.count = a.count();
  arg.solve = true;

  const auto spec = block_spec(dev.config(), a.count(), threads, m, n + 1, 1,
                               "ls_per_block");
  auto res = launch_qr_2d(dev, spec, arg);
  return GpuBatchResult{res, model::ls_flops(m, n) * a.count()};
}

}  // namespace regla::core
