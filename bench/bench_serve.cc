// Serving bench: batched vs sequential request handling on the
// InceptionV3 Figure-7 pooling layers (Table I's highlighted rows).
//
// For each shape, R single-image MaxPool requests are pushed through a
// serve::Session twice: once with max_batch = 1 (every request launches
// alone -- the baseline a caller gets from run_pool in a loop)
// and once with the batcher coalescing same-geometry requests into
// multi-N launches. Requests arrive in two waves so the second wave
// exercises the plan cache. Outputs are compared bit-for-bit across the
// two modes. --json-seq and --json-batched write the sequential and the
// batched totals with identical row keys, for davinci_prof --diff.
//
// The sessions keep the default instruction-stream VM launch window
// (docs/ASYNC_VM.md). The gated "cycles" rows are the per-launch sums;
// the VM cross-batch makespan rides along as the non-gated
// vm_makespan / vm_overlap_cycles.
#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

#include "harness.h"
#include "nets/cnn_tables.h"
#include "serve/session.h"
#include "sim/metrics_registry.h"
#include "tensor/fractal.h"

using namespace davinci;

namespace {

struct ModeResult {
  std::int64_t cycles_total = 0;
  std::int64_t launches = 0;
  double avg_batch = 0.0;
  double hit_rate = 0.0;
  std::int64_t host_ns = 0;
  std::int64_t vm_makespan = 0;
  std::int64_t vm_overlap_cycles = 0;
  stats::Summary latency;
  std::vector<TensorF16> outputs;
  Device::RunResult first_run;
};

ModeResult run_mode(const nets::PoolLayer& layer, bool batching, bool db,
                    int requests) {
  serve::SessionOptions opts;
  if (!batching) opts.max_batch = 1;
  opts.double_buffer = db;
  serve::Session session(serve::Cluster{}, opts);

  const std::int64_t c1 = c1_of(layer.c);
  std::vector<TensorF16> inputs;
  inputs.reserve(static_cast<std::size_t>(requests));
  for (int r = 0; r < requests; ++r) {
    inputs.push_back(bench::make_input(1, c1, layer.h, layer.w,
                                       static_cast<std::uint64_t>(r + 1)));
  }

  kernels::PoolOp op;
  op.kind = kernels::PoolOpKind::kMaxFwd;
  op.window = layer.window;
  op.fwd = akg::PoolImpl::kIm2col;

  ModeResult res;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<kernels::PoolResult>> futures;
  // Two waves: pause the worker so each wave coalesces deterministically,
  // and the second wave's plan resolves from the cache.
  for (int wave = 0; wave < 2; ++wave) {
    session.pause();
    for (int r = wave * requests / 2;
         r < (wave + 1) * requests / 2; ++r) {
      kernels::PoolInputs in;
      in.in = &inputs[static_cast<std::size_t>(r)];
      futures.push_back(session.submit(op, in));
    }
    session.resume();
    session.drain();
  }
  for (std::size_t f = 0; f < futures.size(); ++f) {
    kernels::PoolResult r = futures[f].get();
    if (f == 0) res.first_run = r.run;
    res.outputs.push_back(std::move(r.out));
  }
  res.host_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  const serve::SessionStats s = session.stats();
  res.cycles_total = s.device_cycles_total;
  res.launches = s.launches;
  res.avg_batch = s.avg_batch;
  res.hit_rate = s.plan_cache.hit_rate();
  res.vm_makespan = s.vm.makespan;
  res.vm_overlap_cycles = s.vm.overlap_cycles;
  res.latency = s.latency;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, json_seq, json_batched, metrics_path;
  bool no_double_buffer = false;
  flags::Parser cli("bench_serve");
  cli.flag("json", &json_path, "write the rows of both modes here")
      .flag("json-seq", &json_seq, "write the sequential totals here")
      .flag("json-batched", &json_batched, "write the batched totals here")
      .flag("no-double-buffer", &no_double_buffer, "single-buffer schedule")
      .flag("metrics", &metrics_path, "write the metrics JSON here");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  bench::print_preamble(
      "Serving throughput: batched vs sequential sessions on the "
      "InceptionV3 pooling layers",
      "Table I / Figure 7a (IPDPSW 2021), served");
  const bool db = !no_double_buffer;
  const int kRequests = 8;

  bench::JsonReport report("serve");
  bench::JsonReport report_seq("serve_sequential");
  bench::JsonReport report_batched("serve_batched");
  MetricsRegistry registry;
  bench::Table table("Serving, " + std::to_string(kRequests) +
                         " requests per shape",
                     {"input (HWC)", "sequential", "batched", "speedup",
                      "launches", "avg batch", "plan hits", "verified"});

  bool all_ok = true;
  bool all_faster = true;
  for (const auto& layer : nets::inception_v3_fig7_layers()) {
    const ModeResult seq = run_mode(layer, /*batching=*/false, db, kRequests);
    const ModeResult bat = run_mode(layer, /*batching=*/true, db, kRequests);

    bool ok = seq.outputs.size() == bat.outputs.size();
    for (std::size_t r = 0; ok && r < seq.outputs.size(); ++r) {
      ok = seq.outputs[r].size() == bat.outputs[r].size();
      for (std::int64_t i = 0; ok && i < seq.outputs[r].size(); ++i) {
        ok = seq.outputs[r].flat(i) == bat.outputs[r].flat(i);
      }
    }
    all_ok &= ok;
    all_faster &= bat.cycles_total < seq.cycles_total;

    char shape[48];
    std::snprintf(shape, sizeof(shape), "%lld,%lld,%lld",
                  static_cast<long long>(layer.h),
                  static_cast<long long>(layer.w),
                  static_cast<long long>(layer.c));
    char avg[16], hits[16];
    std::snprintf(avg, sizeof(avg), "%.1f", bat.avg_batch);
    std::snprintf(hits, sizeof(hits), "%.0f%%", bat.hit_rate * 100.0);
    table.add_row({shape, bench::fmt_int(seq.cycles_total),
                   bench::fmt_int(bat.cycles_total),
                   bench::fmt_ratio(static_cast<double>(seq.cycles_total) /
                                    static_cast<double>(bat.cycles_total)),
                   bench::fmt_int(bat.launches), avg, hits,
                   ok ? "bit-exact" : "MISMATCH"});

    const std::string name = std::string("inception_v3 ") + shape;
    for (const bool batched : {false, true}) {
      const ModeResult& m = batched ? bat : seq;
      // "cycles" keeps the per-launch sum so the strict batched-vs-
      // sequential gate is unchanged; the VM cross-batch view rides
      // along as non-gated keys.
      report.row()
          .field("name", name)
          .field("mode", std::string(batched ? "batched" : "sequential"))
          .field("requests", static_cast<std::int64_t>(kRequests))
          .field("cycles", m.cycles_total)
          .field("vm_makespan", m.vm_makespan)
          .field("vm_overlap_cycles", m.vm_overlap_cycles)
          .field("launches", m.launches)
          .field("host_ns", m.host_ns)
          .summary_fields("host_latency_us", m.latency);
    }
    report_seq.row()
        .field("name", name)
        .field("requests", static_cast<std::int64_t>(kRequests))
        .field("cycles", seq.cycles_total)
        .field("vm_makespan", seq.vm_makespan)
        .field("host_ns", seq.host_ns);
    report_batched.row()
        .field("name", name)
        .field("requests", static_cast<std::int64_t>(kRequests))
        .field("cycles", bat.cycles_total)
        .field("vm_makespan", bat.vm_makespan)
        .field("host_ns", bat.host_ns);
    registry.add(name + " batched", bat.first_run);
  }

  // The batched session's serve stats (plan-cache hit rate et al.) land
  // in the metrics JSON through a fresh session over all three shapes.
  {
    serve::SessionOptions opts;
    opts.double_buffer = db;
    serve::Session session(serve::Cluster{}, opts);
    std::vector<TensorF16> inputs;
    std::vector<std::future<kernels::PoolResult>> futures;
    for (const auto& layer : nets::inception_v3_fig7_layers()) {
      inputs.push_back(
          bench::make_input(1, c1_of(layer.c), layer.h, layer.w, 7));
    }
    for (int round = 0; round < 2; ++round) {
      session.pause();
      std::size_t i = 0;
      for (const auto& layer : nets::inception_v3_fig7_layers()) {
        kernels::PoolOp op;
        op.kind = kernels::PoolOpKind::kMaxFwd;
        op.window = layer.window;
        op.fwd = akg::PoolImpl::kIm2col;
        kernels::PoolInputs in;
        in.in = &inputs[i++];
        futures.push_back(session.submit(op, in));
      }
      session.resume();
      session.drain();
    }
    for (auto& f : futures) f.get();
    registry.set_serve(session.serve_json());
  }

  table.print();
  std::printf("outputs %s across modes; batched %s than sequential on "
              "every shape\n",
              all_ok ? "bit-exact" : "MISMATCHED",
              all_faster ? "strictly faster" : "NOT faster");

  if (!json_path.empty()) report.write(json_path);
  if (!json_seq.empty()) report_seq.write(json_seq);
  if (!json_batched.empty()) report_batched.write(json_batched);
  if (!metrics_path.empty()) registry.write(metrics_path);
  return (all_ok && all_faster) ? 0 : 1;
}
