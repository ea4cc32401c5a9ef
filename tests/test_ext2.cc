// Tests for apply-Q^H and a launch's phase slices on the obs trace.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/generators.h"
#include "common/norms.h"
#include "core/per_block.h"
#include "core/per_block_ext.h"
#include "cpu/qr.h"
#include "json_check.h"
#include "obs/trace.h"
#include "test_util.h"

namespace regla::core {
namespace {

TEST(ApplyQt, RealMatchesCpuApply) {
  simt::Device dev;
  const int m = 40, n = 24, count = 3;
  BatchF batch(count, m, n), taus;
  fill_uniform(batch, 1);
  BatchF orig = batch;
  qr_per_block(dev, batch, &taus);

  BatchF b(count, m, 1);
  fill_uniform(b, 2);
  BatchF b0 = b;
  apply_qt_per_block(dev, batch, taus, b);

  for (int k = 0; k < count; ++k) {
    Matrix<float> packed(m, n), rhs(m, 1);
    std::vector<float> tau(n);
    for (int c = 0; c < n; ++c) tau[c] = taus.at(k, c, 0);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) packed(i, j) = batch.at(k, i, j);
    for (int i = 0; i < m; ++i) rhs(i, 0) = b0.at(k, i, 0);
    cpu::qr_apply_qt(packed.view(), tau, rhs.view());
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(b.at(k, i, 0), rhs(i, 0), 2e-3f) << "problem " << k << " row " << i;
  }
}

TEST(ApplyQt, FactorOnceSolveManyLeastSquares) {
  // The repeated-solve path: one factorization, two different right-hand
  // sides, each solved by apply_qt + host back substitution.
  simt::Device dev;
  const int m = 32, n = 8;
  BatchF batch(1, m, n), taus;
  fill_uniform(batch, 5);
  BatchF a0 = batch;
  qr_per_block(dev, batch, &taus);

  for (int rhs_seed : {10, 11}) {
    BatchF x_true(1, n, 1);
    fill_uniform(x_true, rhs_seed);
    BatchF b(1, m, 1);
    for (int i = 0; i < m; ++i) {
      float acc = 0;
      for (int j = 0; j < n; ++j) acc += a0.at(0, i, j) * x_true.at(0, j, 0);
      b.at(0, i, 0) = acc;
    }
    apply_qt_per_block(dev, batch, taus, b);
    // Host back-substitution on the R factor.
    Matrix<float> r(n, n), y(n, 1);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i <= j; ++i) r(i, j) = batch.at(0, i, j);
      y(j, 0) = b.at(0, j, 0);
    }
    cpu::strsm_upper_left(r.view(), y.view());
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(y(j, 0), x_true.at(0, j, 0), 5e-3f) << "seed " << rhs_seed;
  }
}

TEST(ApplyQt, ComplexMatchesCpuApply) {
  simt::Device dev;
  const int m = 24, n = 12;
  BatchC batch(2, m, n), taus;
  fill_uniform(batch, 7);
  qr_per_block(dev, batch, &taus);
  BatchC b(2, m, 1);
  fill_uniform(b, 8);
  BatchC b0 = b;
  apply_qt_per_block(dev, batch, taus, b);

  MatrixC packed(m, n), rhs(m, 1);
  std::vector<cpu::cfloat> tau(n);
  for (int c = 0; c < n; ++c) tau[c] = taus.at(1, c, 0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) packed(i, j) = batch.at(1, i, j);
  for (int i = 0; i < m; ++i) rhs(i, 0) = b0.at(1, i, 0);
  cpu::qr_apply_qt(packed.view(), tau, rhs.view());
  for (int i = 0; i < m; ++i)
    EXPECT_LT(std::abs(b.at(1, i, 0) - rhs(i, 0)), 3e-3f) << "row " << i;
}

/// One complete ("X") event of an obs trace export.
struct Slice {
  std::string name;
  double ts = 0, dur = 0;
  long tid = 0;
};

/// The complete events of a write_trace_json export, in file order. Assumes
/// names without escaped quotes (the kernels' phase and span names).
std::vector<Slice> complete_events(const std::string& json) {
  std::vector<Slice> out;
  const std::string key = "{\"name\":\"";
  for (std::size_t p = json.find(key); p != std::string::npos;
       p = json.find(key, p + 1)) {
    const std::string ev = json.substr(p, json.find('}', p) - p);
    if (ev.find("\"ph\":\"X\"") == std::string::npos) continue;
    const auto field = [&ev](const char* f) {
      return std::stod(ev.substr(ev.find(f) + std::strlen(f)));
    };
    Slice s;
    s.name = ev.substr(key.size(), ev.find('"', key.size()) - key.size());
    s.ts = field("\"ts\":");
    s.dur = field("\"dur\":");
    s.tid = static_cast<long>(field("\"tid\":"));
    out.push_back(s);
  }
  return out;
}

// The launch's tag/panel breakdown on the process timeline: the export is
// valid JSON, the phase slices run in execution order (load, panel 0's
// rank-1 update, store), and every slice nests inside the engine.launch
// span on the same track.
TEST(Trace, ChromeJsonWellFormedAndComplete) {
  simt::Device dev;
  BatchF batch(2, 24, 24);
  fill_uniform(batch, 3);
  obs::trace_start({1 << 12});
  qr_per_block(dev, batch);
  obs::trace_stop();
  std::ostringstream os;
  obs::write_trace_json(os);
  const std::string json = os.str();
  std::string err;
  ASSERT_TRUE(testing::json_parses(json, &err)) << err;

  const std::vector<Slice> events = complete_events(json);
  const Slice* launch = nullptr;
  int load = -1, rank1 = -1, store = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string& name = events[i].name;
    if (name == "engine.launch") launch = &events[i];
    if (name.starts_with("phase:load:")) load = static_cast<int>(i);
    if (name.starts_with("phase:rank1 p0:")) rank1 = static_cast<int>(i);
    if (name.starts_with("phase:store:")) store = static_cast<int>(i);
  }
  ASSERT_NE(launch, nullptr);
  ASSERT_GE(load, 0);
  ASSERT_GE(rank1, 0);
  ASSERT_GE(store, 0);
  EXPECT_LT(load, rank1);
  EXPECT_LT(rank1, store);
  EXPECT_LT(events[load].ts, events[rank1].ts);
  EXPECT_LT(events[rank1].ts, events[store].ts);

  const double eps = 1e-3;  // us; timestamps export at 15 digits
  double total = 0;
  for (const Slice& s : events) {
    if (!s.name.starts_with("phase:")) continue;
    EXPECT_EQ(s.tid, launch->tid) << s.name;
    EXPECT_GE(s.ts, launch->ts - eps) << s.name;
    EXPECT_LE(s.ts + s.dur, launch->ts + launch->dur + eps) << s.name;
    total += s.dur;
  }
  EXPECT_GT(total, 0);
  EXPECT_LE(total, launch->dur + eps);
}

}  // namespace
}  // namespace regla::core
