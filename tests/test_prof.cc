// The davinci_prof backend: JSON parsing, report rendering and the
// regression diff (docs/OBSERVABILITY.md). The diff gates only the
// lower-is-better cycle metrics; everything else is informational, and
// host wall-clock is ignored unless explicitly requested.
#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "common/json.h"
#include "kernels/pooling.h"
#include "sim/metrics_registry.h"
#include "sim/prof_report.h"
#include "tensor/fractal.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

TEST(JsonParser, AcceptsTheObviousCases) {
  const json::Value v =
      json::parse("{\"a\": [1, -2.5e3, \"x\\n\\u0041\", true, null]}");
  const json::Array& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(a[1].as_double(), -2500.0);
  EXPECT_EQ(a[2].as_string(), "x\nA");
  EXPECT_TRUE(a[3].as_bool());
  EXPECT_TRUE(a[4].is_null());
  // Integers beyond double precision stay exact.
  EXPECT_EQ(json::parse("9007199254740993").as_int(), 9007199254740993LL);
}

TEST(JsonParser, RejectsMalformedDocuments) {
  EXPECT_THROW(json::parse("{\"a\": 1,}"), Error);
  EXPECT_THROW(json::parse("[1, 2"), Error);
  EXPECT_THROW(json::parse("\"unterminated"), Error);
  EXPECT_THROW(json::parse("{} trailing"), Error);
  EXPECT_THROW(json::parse(""), Error);
}

// A minimal metrics-shaped document with one knob per concern.
std::string metrics_doc(std::int64_t cycles, std::int64_t host_ns,
                        std::int64_t gm_bytes) {
  std::string s = "{\"schema\":\"davinci.metrics\",\"schema_version\":1,";
  s += "\"entries\":[{\"name\":\"k\",\"cycles\":" + std::to_string(cycles);
  s += ",\"cycles_serial\":" + std::to_string(cycles + 100);
  s += ",\"host_ns\":" + std::to_string(host_ns);
  s += ",\"traffic\":{\"gm_total\":" + std::to_string(gm_bytes) + "}}]}";
  return s;
}

TEST(ProfDiff, IdenticalDocumentsPass) {
  const json::Value v = json::parse(metrics_doc(1000, 5000, 4096));
  const DiffResult r = diff_reports(v, v, DiffOptions{});
  EXPECT_FALSE(r.regressed);
  EXPECT_EQ(r.regressions, 0);
  EXPECT_GT(r.compared, 0);
}

TEST(ProfDiff, FlagsTenPercentCycleRegression) {
  const json::Value base = json::parse(metrics_doc(1000, 5000, 4096));
  const json::Value worse = json::parse(metrics_doc(1100, 5000, 4096));
  DiffOptions opts;  // default 5% tolerance
  const DiffResult r = diff_reports(base, worse, opts);
  EXPECT_TRUE(r.regressed);
  EXPECT_GE(r.regressions, 1);
  EXPECT_NE(r.report.find("REGRESSION"), std::string::npos);

  // The same pair passes under a 20% tolerance...
  opts.tol = 0.20;
  EXPECT_FALSE(diff_reports(base, worse, opts).regressed);
  // ...and under a per-metric override for cycles alone.
  opts.tol = 0.05;
  opts.per_metric["cycles"] = 0.20;
  opts.per_metric["cycles_serial"] = 0.20;
  EXPECT_FALSE(diff_reports(base, worse, opts).regressed);
}

TEST(ProfDiff, ImprovementIsNotARegression) {
  const json::Value base = json::parse(metrics_doc(1000, 5000, 4096));
  const json::Value better = json::parse(metrics_doc(800, 5000, 4096));
  EXPECT_FALSE(diff_reports(base, better, DiffOptions{}).regressed);
}

TEST(ProfDiff, HostWallClockSkippedUnlessRequested) {
  const json::Value base = json::parse(metrics_doc(1000, 5000, 4096));
  const json::Value slower_host = json::parse(metrics_doc(1000, 50000, 4096));
  DiffOptions opts;
  EXPECT_FALSE(diff_reports(base, slower_host, opts).regressed);
  opts.include_host = true;
  EXPECT_TRUE(diff_reports(base, slower_host, opts).regressed);
}

TEST(ProfDiff, ByteCountDriftIsInformationalOnly) {
  const json::Value base = json::parse(metrics_doc(1000, 5000, 4096));
  const json::Value drift = json::parse(metrics_doc(1000, 5000, 8192));
  const DiffResult r = diff_reports(base, drift, DiffOptions{});
  EXPECT_FALSE(r.regressed);
  // ... but the drift is still reported.
  EXPECT_NE(r.report.find("gm_total"), std::string::npos);
}

// End-to-end over the real serializer: a real run diffed against itself
// is clean, and a synthetically slowed copy of the JSON regresses.
TEST(ProfDiff, RealMetricsJsonRoundTrip) {
  Device dev;
  TensorF16 in(Shape{1, 2, 35, 35, kC0});
  in.fill_random_ints(1);
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  MetricsRegistry reg;
  reg.add("maxpool", r.run, dev.arch());
  const std::string text = reg.to_json();
  const json::Value doc = json::parse(text);
  EXPECT_FALSE(diff_reports(doc, doc, DiffOptions{}).regressed);

  // Bump every cycles field by 10% via string surgery on one entry.
  const std::string from = "\"cycles\":" + std::to_string(r.run.device_cycles);
  const std::string to =
      "\"cycles\":" + std::to_string(r.run.device_cycles * 11 / 10);
  const std::size_t pos = text.find(from);
  ASSERT_NE(pos, std::string::npos);
  std::string slowed = text;
  slowed.replace(pos, from.size(), to);
  EXPECT_TRUE(
      diff_reports(doc, json::parse(slowed), DiffOptions{}).regressed);
}

TEST(ProfRender, MetricsAndBenchShapesRender) {
  Device dev;
  TensorF16 in(Shape{1, 2, 35, 35, kC0});
  in.fill_random_ints(1);
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
             .fwd = akg::PoolImpl::kDirect},
      PoolInputs{.in = &in});
  MetricsRegistry reg;
  reg.add("maxpool-direct", r.run, dev.arch());
  const std::string report = render_report(json::parse(reg.to_json()));
  EXPECT_NE(report.find("maxpool-direct"), std::string::npos);
  EXPECT_NE(report.find("roofline"), std::string::npos);

  const std::string bench = render_report(json::parse(
      "{\"bench\":\"b\",\"rows\":[{\"impl\":\"direct\",\"cycles\":7}]}"));
  EXPECT_NE(bench.find("direct"), std::string::npos);
}

}  // namespace
}  // namespace davinci
