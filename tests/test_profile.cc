// Tests for the profiling layer: per-unit occupancy counters surfaced
// through Device::RunResult and the Chrome trace_event JSON export.
//
// The headline assertion reproduces Section V of the paper in counter
// form: on an InceptionV3 maxpool shape the direct implementation keeps
// the Vector Unit at ~16 of 128 lanes while the Im2col formulation
// saturates the mask.
#include "sim/trace_export.h"

#include <cctype>
#include <gtest/gtest.h>

#include "kernels/pooling.h"
#include "nets/pipeline.h"
#include "sim/device.h"
#include "tensor/fractal.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

// --- Minimal JSON syntax checker (no external deps) -----------------------
// Validates the full grammar the exporter can emit: objects, arrays,
// strings with escapes, numbers, true/false/null. Returns true iff `text`
// is exactly one well-formed JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, AcceptsAndRejectsTheObviousCases) {
  EXPECT_TRUE(JsonChecker("{\"a\": [1, -2.5e3, \"x\\n\", true, null]}")
                  .valid());
  EXPECT_FALSE(JsonChecker("{\"a\": 1,}").valid());
  EXPECT_FALSE(JsonChecker("[1, 2").valid());
  EXPECT_FALSE(JsonChecker("\"unterminated").valid());
}

// --------------------------------------------------------------------------

TensorF16 inception_input() {
  // InceptionV3 (35, 35, 288) -- the paper's largest Figure 7a shape.
  TensorF16 in(Shape{1, c1_of(288), 35, 35, kC0});
  in.fill_random_ints(1);
  return in;
}

// Direct pooling reduces Kh values elementwise over a 16-lane (one C0
// group) slice: ~16 of 128 lanes active. Im2col pooling reduces whole
// rows of the im2col matrix: full 128-lane masks. The counters must show
// exactly that gap.
TEST(Profile, DirectStarvesLanesIm2colSaturatesThem) {
  Device dev;
  const TensorF16 in = inception_input();
  const Window2d window = Window2d::pool(3, 2);

  auto direct =
      kernels::run_pool(
          dev,
          PoolOp{.kind = PoolOpKind::kMaxFwd, .window = window,
                 .fwd = akg::PoolImpl::kDirect},
          PoolInputs{.in = &in});
  EXPECT_GT(direct.run.profile.vec.instrs, 0);
  EXPECT_LE(direct.run.profile.vec_lane_utilization(), 0.2);
  // A handful of full-mask setup instructions aside, nothing saturates.
  EXPECT_LE(direct.run.profile.vec.saturation(), 0.01);

  auto im2col =
      kernels::run_pool(
          dev,
          PoolOp{.kind = PoolOpKind::kMaxFwd, .window = window,
                 .fwd = akg::PoolImpl::kIm2col},
          PoolInputs{.in = &in});
  EXPECT_GT(im2col.run.profile.vec.instrs, 0);
  EXPECT_GE(im2col.run.profile.vec_lane_utilization(), 0.9);
  EXPECT_GE(im2col.run.profile.vec.saturation(), 0.9);
  // Only the Im2col run exercises the SCU.
  EXPECT_EQ(direct.run.profile.im2col.instrs, 0);
  EXPECT_GT(im2col.run.profile.im2col.instrs, 0);
}

TEST(Profile, RecordedWithoutTracingEnabled) {
  Device dev;  // no core(i).trace().enable() anywhere
  const TensorF16 in = inception_input();
  auto r = kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});
  EXPECT_GT(r.run.profile.vec.instrs, 0);
  EXPECT_GT(r.run.profile.mte.instrs, 0);
}

TEST(Profile, FaultFreeResilientRunMatchesPlainRun) {
  const TensorF16 in = inception_input();
  const Window2d window = Window2d::pool(3, 2);

  Device plain;
  auto a = kernels::run_pool(
      plain,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = window,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});

  Device resilient;
  ResilienceOptions opts;  // empty plan, verification off
  resilient.set_resilience(opts);
  auto b = kernels::run_pool(
      resilient,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = window,
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});

  EXPECT_EQ(a.run.device_cycles, b.run.device_cycles);
  EXPECT_EQ(a.run.profile.vec.instrs, b.run.profile.vec.instrs);
  EXPECT_EQ(a.run.profile.vec.slots_used, b.run.profile.vec.slots_used);
  EXPECT_EQ(a.run.profile.im2col.slots_used, b.run.profile.im2col.slots_used);
}

TEST(ChromeTrace, ExportIsWellFormedJsonWithPerCoreTracks) {
  Device dev;
  for (int c = 0; c < dev.num_cores(); ++c) dev.core(c).trace().enable();
  const TensorF16 in = inception_input();
  kernels::run_pool(
      dev,
      PoolOp{.kind = PoolOpKind::kMaxFwd, .window = Window2d::pool(3, 2),
             .fwd = akg::PoolImpl::kIm2col},
      PoolInputs{.in = &in});

  const std::string json = chrome_trace_json(dev);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("AI Core 0"), std::string::npos);
  EXPECT_NE(json.find("Vector"), std::string::npos);
  EXPECT_NE(json.find("vec active lanes"), std::string::npos);
}

TEST(ChromeTrace, EmptyDeviceExportsValidEmptyTrace) {
  Device dev;  // tracing never enabled
  const std::string json = chrome_trace_json(dev);
  EXPECT_TRUE(JsonChecker(json).valid());
}

TEST(ChromeTrace, TruncatedTraceCarriesMarkerEvent) {
  Trace trace;
  trace.enable();
  for (std::size_t i = 0; i < Trace::kMaxEvents + 10; ++i) {
    trace.record(TraceKind::kVector, "vmax", 1, 128, 128);
  }
  ASSERT_TRUE(trace.truncated());
  const std::string json =
      chrome_trace_json({&trace}, std::vector<int>{0});
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("truncated"), std::string::npos);
}

TEST(ChromeTrace, EscapesControlAndQuoteCharactersInDetails) {
  Trace trace;
  trace.enable();
  trace.record(TraceKind::kMte, "copy \"a\\b\"\n\tq", 3, 1, 2);
  const std::string json =
      chrome_trace_json({&trace}, std::vector<int>{5});
  EXPECT_TRUE(JsonChecker(json).valid());
}

TEST(Pipeline, UtilizationTableListsLayersAndTotal) {
  Device dev;
  nets::Pipeline net;
  net.maxpool(Window2d::pool(3, 2), "pool_a");
  net.maxpool(Window2d::pool(3, 1), "pool_b");
  auto r = net.run(dev, inception_input(), nets::PoolingStack::kAccelerated);
  const std::string table = r.utilization_table();
  EXPECT_NE(table.find("pool_a"), std::string::npos);
  EXPECT_NE(table.find("pool_b"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
  EXPECT_NE(table.find("vec-lanes"), std::string::npos);
  EXPECT_GE(r.profile.vec_lane_utilization(), 0.9);  // accelerated stack
}

}  // namespace
}  // namespace davinci
