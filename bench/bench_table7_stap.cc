// Table VII: single-precision complex QR factorizations at the RT_STAP
// benchmark sizes (plus the 192x96 Imagine-paper size), GPU (simulated)
// vs MKL (host CPU, measured), with the paper's GFLOP/s and speedups for
// reference: 80x16 x384 -> 134 vs 5.4 (25x); 240x66 x128 -> 99 vs 36 (2.8x);
// 192x96 x128 -> 98 vs 27 (3.6x).
#include "bench_util.h"
#include "common/generators.h"
#include "cpu/batched.h"
#include "model/flops.h"
#include "planner/solver.h"

int main(int argc, char** argv) {
  using namespace regla;
  bench::parse_smoke(argc, argv);
  simt::Device dev;
  Solver solver(dev);
  Table t({"size", "#matrices", "GPU GFLOPS", "CPU GFLOPS", "speedup",
           "approach", "paper GPU", "paper MKL"});
  t.precision(1);

  const struct { int m, n, count; double paper_gpu, paper_mkl; } cases[] = {
      {80, 16, 384, 134, 5.4},
      {240, 66, 128, 99, 36},
      {192, 96, 128, 98, 27},
  };
  for (const auto& c : cases) {
    const int count = bench::smoke_mode() ? std::min(c.count, 32) : c.count;
    BatchC gpu_batch(count, c.m, c.n);
    fill_uniform(gpu_batch, c.m + c.n);
    const SolveReport gpu = solver.qr(gpu_batch);

    const int cpu_count = std::min(c.count, bench::pick(64, 8));
    BatchC cpu_batch(cpu_count, c.m, c.n);
    fill_uniform(cpu_batch, c.m + c.n + 1);
    const auto cpu_t = cpu::batched_qr(cpu_batch);
    const double cpu_gflops =
        cpu_t.gflops(model::cqr_flops(c.m, c.n) * cpu_count);

    t.add_row({std::to_string(c.m) + "x" + std::to_string(c.n),
               static_cast<long long>(c.count), gpu.gflops(), cpu_gflops,
               gpu.gflops() / cpu_gflops, std::string(core::to_string(gpu.plan.approach)),
               c.paper_gpu, c.paper_mkl});
  }
  bench::emit(t, "table7", "RT_STAP complex QR factorizations");
  return 0;
}
