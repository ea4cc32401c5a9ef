#include "core/tiled_qr.h"

#include <algorithm>

#include "common/error.h"
#include "core/detail/qr_block_kernels.h"
#include "core/layout.h"
#include "core/per_block.h"
#include "model/flops.h"
#include "model/per_block_model.h"

namespace regla::core {

namespace {

/// Tallest stacked matrix (rows) a 256-thread block holds for n columns.
/// Tiles up to twice the register budget are allowed — the excess spills,
/// which the simulator charges as DRAM traffic. This mirrors the paper's
/// observation that the 240 x 66 STAP case "does not fit well in our block
/// sizes so some register file space is being wasted" and runs slower.
/// Geometry lives in the model layer so the launch planner sees the same
/// shape arithmetic.
int max_stacked_rows(const simt::DeviceConfig& cfg, int n, int words_per_elem) {
  return model::tiled_max_stacked_rows(cfg, n, words_per_elem);
}

template <typename S>
struct BatchOf;
template <>
struct BatchOf<simt::gfloat> { using type = BatchF; };
template <>
struct BatchOf<simt::gcomplex> { using type = BatchC; };

template <typename S>
TiledResult tiled_qr_impl(simt::Device& dev,
                          typename BatchOf<S>::type& batch,
                          typename BatchOf<S>::type& out_r) {
  using Batch = typename BatchOf<S>::type;
  using Store = typename detail::StorageOf<S>::type;
  constexpr int wpe = static_cast<int>(sizeof(Store) / 4);

  const int m = batch.rows(), n = batch.cols(), count = batch.count();
  REGLA_CHECK(m >= n);
  out_r = Batch(count, n, n);

  TiledResult out;
  out.nominal_flops =
      (wpe == 2 ? model::cqr_flops(m, n) : model::qr_flops(m, n)) * count;

  const int max_rows = max_stacked_rows(dev.config(), n, wpe);
  REGLA_CHECK_MSG(max_rows > n,
                  "matrix too wide for the tiled path: n = " << n);
  out.tile_rows = max_rows - n;

  // Copy the R block (upper triangle of the leading n rows) of a factored
  // stacked batch into out_r.
  auto harvest_r = [&](const Batch& stacked) {
    for (int k = 0; k < count; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          out_r.at(k, i, j) = (i <= j) ? stacked.at(k, i, j) : Store{};
  };

  int consumed = 0;
  bool first = true;
  while (consumed < m) {
    const int fresh = first ? std::min(m, max_rows)
                            : std::min(m - consumed, out.tile_rows);
    const int rows = first ? fresh : n + fresh;
    Batch stacked(count, rows, n);
    for (int k = 0; k < count; ++k) {
      int row = 0;
      if (!first)
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < n; ++i) stacked.at(k, i, j) = out_r.at(k, i, j);
      row = first ? 0 : n;
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < fresh; ++i)
          stacked.at(k, row + i, j) = batch.at(k, consumed + i, j);
    }

    detail::QrBlockArgs<Store> arg;
    arg.a = stacked.data();
    arg.m = rows;
    arg.n = n;
    arg.count = count;

    simt::LaunchSpec spec;
    spec.blocks = count;
    spec.threads = 256;
    spec.regs_per_thread = per_block_regs(dev.config(), rows, n, 256, wpe);
    spec.name = "tiled_qr_step";
    auto res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
      return detail::qr_block_2d<S>(ctx, arg);
    });
    out.seconds += res.seconds;
    out.chip_cycles += res.chip_cycles;
    ++out.steps;

    harvest_r(stacked);
    consumed += fresh;
    first = false;
  }
  return out;
}

}  // namespace

bool fits_one_block(const regla::simt::DeviceConfig& cfg, int m, int n,
                    int words_per_elem) {
  return model::block_tile_fits(cfg, m, n, words_per_elem);
}

TiledResult tiled_qr_r(regla::simt::Device& dev, BatchF& batch, BatchF& out_r) {
  return tiled_qr_impl<simt::gfloat>(dev, batch, out_r);
}

TiledResult tiled_qr_r(regla::simt::Device& dev, BatchC& batch, BatchC& out_r) {
  return tiled_qr_impl<simt::gcomplex>(dev, batch, out_r);
}

TiledResult tiled_least_squares(regla::simt::Device& dev, BatchF& a, BatchF& b,
                                BatchF& x) {
  const int m = a.rows(), n = a.cols(), count = a.count();
  REGLA_CHECK(m > n);
  REGLA_CHECK(b.count() == count && b.rows() == m && b.cols() == 1);
  x = BatchF(count, n, 1);

  TiledResult out;
  out.nominal_flops = model::ls_flops(m, n) * count;

  // The stacked step matrix carries an augmented column, so size for n + 1.
  const int max_rows = max_stacked_rows(dev.config(), n + 1, 1);
  REGLA_CHECK_MSG(max_rows > n, "matrix too wide for the tiled path: n = " << n);
  out.tile_rows = max_rows - n;

  // Running R (upper n x n) and y = Q^H b head (n) per problem.
  BatchF r_acc(count, n, n), y_acc(count, n, 1);

  int consumed = 0;
  bool first = true;
  while (consumed < m) {
    const int fresh = first ? std::min(m, max_rows)
                            : std::min(m - consumed, out.tile_rows);
    const int rows = first ? fresh : n + fresh;
    const bool last = consumed + fresh >= m;

    BatchF stacked(count, rows, n), bvec(count, rows, 1);
    for (int k = 0; k < count; ++k) {
      const int off = first ? 0 : n;
      if (!first) {
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < n; ++i) stacked.at(k, i, j) = r_acc.at(k, i, j);
        for (int i = 0; i < n; ++i) bvec.at(k, i, 0) = y_acc.at(k, i, 0);
      }
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < fresh; ++i)
          stacked.at(k, off + i, j) = a.at(k, consumed + i, j);
      for (int i = 0; i < fresh; ++i)
        bvec.at(k, off + i, 0) = b.at(k, consumed + i, 0);
    }

    detail::QrBlockArgs<float> arg;
    arg.a = stacked.data();
    arg.b = bvec.data();
    arg.m = rows;
    arg.n = n;
    arg.count = count;
    arg.solve = last;
    arg.augment_only = !last;

    simt::LaunchSpec spec;
    spec.blocks = count;
    spec.threads = 256;
    spec.regs_per_thread = per_block_regs(dev.config(), rows, n + 1, 256, 1);
    spec.name = "tiled_ls_step";
    auto res = dev.launch(spec, [arg](simt::BlockCtx& ctx) {
      return detail::qr_block_2d<simt::gfloat>(ctx, arg);
    });
    out.seconds += res.seconds;
    out.chip_cycles += res.chip_cycles;
    ++out.steps;

    if (last) {
      for (int k = 0; k < count; ++k)
        for (int i = 0; i < n; ++i) x.at(k, i, 0) = bvec.at(k, i, 0);
    } else {
      for (int k = 0; k < count; ++k) {
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < n; ++i)
            r_acc.at(k, i, j) = (i <= j) ? stacked.at(k, i, j) : 0.0f;
        for (int i = 0; i < n; ++i) y_acc.at(k, i, 0) = bvec.at(k, i, 0);
      }
    }
    consumed += fresh;
    first = false;
  }
  return out;
}

}  // namespace regla::core
