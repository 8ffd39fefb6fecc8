// Locale-independence of the JSON toolchain (common/json.h). The
// historical bug: float serialization went through the snprintf "%g"
// family and float parsing through std::stod, both of which consult
// LC_NUMERIC -- under a comma-decimal locale (de_DE and most of Europe)
// the writer emitted "0,5" (invalid JSON) and the reader stopped at the
// '.' and silently read "1.5" as 1.0. json::number / json::parse must be
// immune, so this binary flips the process into a comma-decimal locale
// and round-trips real reports. CI runs it in the sanitizer jobs too.
#include <gtest/gtest.h>

#include <clocale>
#include <cstdio>
#include <locale>

#include "common/json.h"
#include "kernels/pooling.h"
#include "sim/metrics_registry.h"
#include "tensor/fractal.h"
#include "tensor/tensor.h"

namespace davinci {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

// A numpunct facet with ',' as the decimal point, for when no comma-
// decimal system locale is installed (minimal containers ship only
// C/POSIX/C.utf8).
class CommaDecimal : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
};

// Installs a comma-decimal locale for the process: a real system locale
// when available (this also flips the C locale snprintf consults --
// the strongest version of the test), else a custom C++ global locale.
// Returns true when the C locale itself uses ',' decimals.
bool install_comma_locale() {
  for (const char* name :
       {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR"}) {
    if (std::setlocale(LC_ALL, name) != nullptr) {
      std::locale::global(std::locale(name));
      return true;
    }
  }
  std::locale::global(std::locale(std::locale::classic(),
                                  new CommaDecimal));
  return false;
}

const bool kCLocaleHasComma = install_comma_locale();

TEST(JsonLocale, NumberFormattingIgnoresLocale) {
  if (kCLocaleHasComma) {
    // Prove the locale took: the snprintf family now writes a comma.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", 0.5);
    ASSERT_STREQ(buf, "0,5");
  }
  EXPECT_EQ(json::number(0.5), "0.5");
  EXPECT_EQ(json::number(-1234.75), "-1234.75");
  EXPECT_EQ(json::number(std::int64_t{42}), "42");
  // Shortest round-trip form, '.' separator, regardless of LC_NUMERIC.
  const json::Value v = json::parse(json::number(0.1));
  EXPECT_DOUBLE_EQ(v.as_double(), 0.1);
}

TEST(JsonLocale, ParserReadsFractionsUnderCommaLocale) {
  // std::stod would stop at '.' here and yield 1.0.
  const json::Value v = json::parse("{\"x\":1.5,\"y\":[0.25,2e-1]}");
  EXPECT_DOUBLE_EQ(v.at("x").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(v.at("y").as_array()[0].as_double(), 0.25);
  EXPECT_DOUBLE_EQ(v.at("y").as_array()[1].as_double(), 0.2);
}

TEST(JsonLocale, MetricsReportRoundTripsUnderCommaLocale) {
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
  // A comma-decimal writer would make this invalid JSON (or silently
  // truncate fractions); strict parsing catches both.
  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.at("schema_version").as_int(),
            MetricsRegistry::kSchemaVersion);
  // A float-valued field survives the round trip with its fraction.
  const json::Value& roof = doc.at("entries").as_array().at(0).at("roofline");
  EXPECT_GT(roof.at("achieved_gm_bytes_per_cycle").as_double(), 0.0);
}

}  // namespace
}  // namespace davinci
