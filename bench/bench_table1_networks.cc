// Table I: the MaxPool layers of InceptionV3, Xception, ResNet50 and
// VGG16. The paper lists the shapes; this bench runs both forward
// implementations on every layer (full channel count, 32-core device) and
// reports per-layer and per-network cycle totals.
#include <cstdio>
#include <map>

#include "harness.h"
#include "kernels/pooling.h"
#include "nets/cnn_tables.h"
#include "ref/pooling_ref.h"

using namespace davinci;

int main(int argc, char** argv) {
  std::string json_path;
  bool no_double_buffer = false;
  flags::Parser cli("bench_table1_networks");
  cli.flag("json", &json_path, "write the rows as bench JSON here")
      .flag("no-double-buffer", &no_double_buffer, "single-buffer schedule");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble(
      "All Table-I CNN pooling layers: standard vs Im2col-based forward",
      "Table I (IPDPSW 2021)");
  Device dev;
  dev.set_double_buffer(!no_double_buffer);
  bench::JsonReport report("table1_networks");
  bench::Table table("Table I workloads",
                     {"network", "input (HWC)", "K/S", "Maxpool",
                      "with Im2col", "speedup", "verified"});
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> totals;

  for (const auto& layer : nets::table1_layers()) {
    const std::int64_t c1 = c1_of(layer.c);
    const TensorF16 in = bench::make_input(1, c1, layer.h, layer.w);
    kernels::PoolOp op{.kind = kernels::PoolOpKind::kMaxFwd,
                       .window = layer.window,
                       .fwd = akg::PoolImpl::kDirect};
    auto direct = kernels::run_pool(dev, op, {.in = &in});
    op.fwd = akg::PoolImpl::kIm2col;
    auto im2col = kernels::run_pool(dev, op, {.in = &in});
    const TensorF16 want = ref::maxpool_fwd(in, layer.window);
    bool ok = true;
    for (std::int64_t i = 0; i < want.size(); ++i) {
      ok &= direct.out.flat(i) == want.flat(i);
      ok &= im2col.out.flat(i) == want.flat(i);
    }
    totals[layer.network].first += direct.cycles();
    totals[layer.network].second += im2col.cycles();

    char shape[48], ks[24];
    std::snprintf(shape, sizeof(shape), "%lld,%lld,%lld",
                  static_cast<long long>(layer.h),
                  static_cast<long long>(layer.w),
                  static_cast<long long>(layer.c));
    std::snprintf(ks, sizeof(ks), "(%lld,%lld)/(%lld,%lld)",
                  static_cast<long long>(layer.window.kh),
                  static_cast<long long>(layer.window.kw),
                  static_cast<long long>(layer.window.sh),
                  static_cast<long long>(layer.window.sw));
    table.add_row({layer.network, shape, ks, bench::fmt_int(direct.cycles()),
                   bench::fmt_int(im2col.cycles()),
                   bench::fmt_ratio(static_cast<double>(direct.cycles()) /
                                    static_cast<double>(im2col.cycles())),
                   ok ? "bit-exact" : "MISMATCH"});
    report.row()
        .field("net", layer.network)
        .field("shape", std::string(shape))
        .field("window", std::string(ks))
        .field("impl", std::string("direct"))
        .field("double_buffer", dev.double_buffer())
        .field("verified", ok)
        .run_fields(direct.run)
        .traffic_fields(direct.run, dev.arch());
    report.row()
        .field("net", layer.network)
        .field("shape", std::string(shape))
        .field("window", std::string(ks))
        .field("impl", std::string("im2col"))
        .field("double_buffer", dev.double_buffer())
        .field("verified", ok)
        .run_fields(im2col.run)
        .traffic_fields(im2col.run, dev.arch());
  }
  table.print();

  bench::Table sums("Per-network totals (all pooling layers)",
                    {"network", "Maxpool", "with Im2col", "speedup"});
  for (const auto& [net, t] : totals) {
    sums.add_row({net, bench::fmt_int(t.first), bench::fmt_int(t.second),
                  bench::fmt_ratio(static_cast<double>(t.first) /
                                   static_cast<double>(t.second))});
  }
  sums.print();
  std::printf(
      "\nNote: VGG16 uses K=S=(2,2) -- non-overlapping windows -- where the\n"
      "Im2col layout still wins on mask saturation alone.\n");
  if (!json_path.empty()) report.write(json_path);
  return 0;
}
