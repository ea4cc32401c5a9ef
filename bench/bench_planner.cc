// The launch planner vs the static dispatch rule across the Fig. 10 shape
// sweep: for every shape, the GFLOP/s of the statically chosen kernel, the
// GFLOP/s of the planner-selected plan, the model's predicted cycles against
// the measured cycles (the paper's Tables IV/V validation, now a live
// planner health metric).
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/generators.h"
#include "core/core.h"
#include "model/model.h"
#include "planner/solver.h"

int main(int argc, char** argv) {
  using namespace regla;
  bench::parse_smoke(argc, argv);
  simt::Device dev;
  Solver solver(dev);
  Table t({"n", "static", "GFLOP/s", "planned", "GFLOP/s", "pred Mcyc",
           "meas Mcyc", "err %"});
  t.precision(1);

  int worse_than_static = 0;
  for (int n : {2, 4, 8, 16, 32, 48, 64, 80, 96, 112, 128}) {
    if (bench::smoke_mode() && n > 48) continue;
    const int batch = n <= 16 ? bench::pick(4096, 512) : 112;
    const double flops = model::qr_flops(n, n) * batch;

    // The static rule, dispatched exactly as the pre-planner API did:
    // choose_approach plus the kernels' own default thread choice.
    const auto approach = core::choose_approach(dev.config(), n, n);
    double static_seconds = 0;
    {
      BatchF b(batch, n, n);
      fill_uniform(b, n);
      switch (approach) {
        case core::Approach::per_thread:
          static_seconds = core::qr_per_thread(dev, b).launch.seconds;
          break;
        case core::Approach::per_block:
          static_seconds = core::qr_per_block(dev, b).launch.seconds;
          break;
        case core::Approach::tiled: {
          BatchF r;
          static_seconds = core::tiled_qr_r(dev, b, r).seconds;
          break;
        }
      }
    }

    // The planner's choice, solved twice on fresh inputs: the first report
    // gives the model-vs-measured cycles, the second the GFLOP/s.
    BatchF b1(batch, n, n), b2(batch, n, n);
    fill_uniform(b1, n + 1);
    fill_uniform(b2, n + 2);
    const auto rep1 = solver.qr(b1);
    const auto rep2 = solver.qr(b2);

    const double static_gf = flops / static_seconds / 1e9;
    const double planned_gf = rep2.gflops();
    if (planned_gf < static_gf * 0.999) ++worse_than_static;
    const double err =
        std::abs(rep1.plan.predicted_cycles - rep1.chip_cycles) /
        rep1.chip_cycles;

    t.add_row({static_cast<long long>(n), std::string(to_string(approach)),
               static_gf,
               std::string(to_string(rep1.plan.approach)) + "@" +
                   std::to_string(rep1.plan.threads),
               planned_gf, rep1.plan.predicted_cycles / 1e6,
               rep1.chip_cycles / 1e6, 100.0 * err});
  }

  bench::emit(t, "planner",
              "Launch planner vs static dispatch (batched QR, Fig. 10 "
              "shapes); err = model-predicted vs measured cycles");

  std::printf("%llu plans built\n", static_cast<unsigned long long>(
                                        solver.planner().stats().plans_built));
  if (worse_than_static > 0) {
    std::printf("WARNING: planner slower than static dispatch on %d shape(s)\n",
                worse_than_static);
    return 1;
  }
  std::printf("planner matched or beat static dispatch on every shape\n");
  return 0;
}
