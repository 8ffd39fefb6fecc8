// Figure 8: MaxPool forward implementations vs input size, per stride.
//
//  8a: stride (1,1) -- maximum data duplication in Im2col; the direct
//      lowering saturates the vector mask and wins.
//  8b: stride (2,2) -- the InceptionV3 regime; the Im2col-based kernels
//      win and the X-Y split underperforms them (it is shown only here,
//      as in the paper).
//  8c: stride (3,3) -- no duplication (K == S); Im2col still wins.
//
// As in the paper, N = C1 = 1 (one AI Core), K = (3,3), no padding, and
// the input height/width grows in steps of two up to the tiling threshold
// (the largest size every implementation can process without H-tiling).
#include <cstdio>

#include "akg/tiling.h"
#include "harness.h"
#include "kernels/pooling.h"
#include "ref/pooling_ref.h"

using namespace davinci;

namespace {

void sweep(std::int64_t stride, bool db, bench::JsonReport* report) {
  Device dev;
  dev.set_double_buffer(db);
  const Window2d w = Window2d::pool(3, stride);
  const bool with_xysplit = stride == 2;  // as in Figure 8b
  const std::int64_t threshold = akg::tiling_threshold(dev.arch(), w);

  std::vector<std::string> cols = {"H=W", "Maxpool", "with Im2col",
                                   "with expansion"};
  if (with_xysplit) cols.push_back("X-Y split");
  cols.push_back("best");
  char title[96];
  std::snprintf(title, sizeof(title),
                "Figure 8%c -- stride (%lld,%lld), cycles up to the tiling "
                "threshold (H=W=%lld)",
                stride == 1 ? 'a' : (stride == 2 ? 'b' : 'c'),
                static_cast<long long>(stride),
                static_cast<long long>(stride),
                static_cast<long long>(threshold));
  bench::Table table(title, cols);

  // Start a little above the kernel and step by 2, like the paper.
  for (std::int64_t h = 9; h <= threshold; h += 2) {
    const TensorF16 in = bench::make_input(1, 1, h, h);
    const TensorF16 want = ref::maxpool_fwd(in, w);

    auto run = [&](akg::PoolImpl impl) {
      auto r = kernels::run_pool(
          dev,
          {.kind = kernels::PoolOpKind::kMaxFwd, .window = w, .fwd = impl},
          {.in = &in});
      for (std::int64_t i = 0; i < want.size(); ++i) {
        if (!(r.out.flat(i) == want.flat(i))) {
          std::fprintf(stderr, "MISMATCH %s h=%lld\n", akg::to_string(impl),
                       static_cast<long long>(h));
          std::exit(1);
        }
      }
      if (report) {
        report->row()
            .field("stride", stride)
            .field("h", h)
            .field("impl", std::string(akg::to_string(impl)))
            .field("double_buffer", db)
            .field("verified", true)
            .run_fields(r.run)
            .traffic_fields(r.run, dev.arch());
      }
      return r.cycles();
    };

    const std::int64_t direct = run(akg::PoolImpl::kDirect);
    const std::int64_t im2col = run(akg::PoolImpl::kIm2col);
    const std::int64_t expansion = run(akg::PoolImpl::kExpansion);
    std::int64_t xysplit = 0;
    if (with_xysplit) xysplit = run(akg::PoolImpl::kXYSplit);

    std::int64_t best = direct;
    const char* best_name = "direct";
    if (im2col < best) { best = im2col; best_name = "im2col"; }
    if (expansion < best) { best = expansion; best_name = "expansion"; }
    if (with_xysplit && xysplit < best) { best = xysplit; best_name = "xysplit"; }

    std::vector<std::string> row = {bench::fmt_int(h), bench::fmt_int(direct),
                                    bench::fmt_int(im2col),
                                    bench::fmt_int(expansion)};
    if (with_xysplit) row.push_back(bench::fmt_int(xysplit));
    row.push_back(best_name);
    table.add_row(std::move(row));
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, only;
  bool no_double_buffer = false;
  flags::Parser cli("bench_fig8_stride_sweep");
  cli.flag("json", &json_path, "write the rows as bench JSON here")
      .flag("no-double-buffer", &no_double_buffer, "single-buffer schedule")
      .flag("stride", &only, "sweep only this stride (none = all three)",
            {"1", "2", "3"});
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble(
      "MaxPool forward implementations across strides and input sizes",
      "Figure 8 (IPDPSW 2021)");
  bench::JsonReport report("fig8_stride_sweep");
  for (std::int64_t s : {1, 2, 3}) {
    if (only.empty() || only == std::to_string(s)) {
      sweep(s, !no_double_buffer, json_path.empty() ? nullptr : &report);
    }
  }
  std::printf(
      "\nExpected shape (Section VI-B): direct wins only at stride (1,1);\n"
      "Im2col-based kernels win at (2,2) and (3,3); the X-Y split\n"
      "underperforms the Im2col-based implementations.\n");
  if (!json_path.empty()) report.write(json_path);
  return 0;
}
