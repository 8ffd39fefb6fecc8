// Common harness for the paper-reproduction benches. Each bench binary
// regenerates one table or figure of the paper: it runs the relevant
// kernels on the simulated Ascend-910-like device and prints the cycle
// counts the paper plots. The simulator is deterministic, so a single run
// per configuration is exact (the paper averaged 10 hardware runs; here
// the variance is zero by construction).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flags.h"  // every bench declares its flags on a Parser
#include "common/percentile.h"
#include "sim/device.h"
#include "tensor/fractal.h"
#include "tensor/pool_geometry.h"
#include "tensor/tensor.h"

namespace davinci::bench {

// Random integer-valued NC1HWC0 input (values do not affect cycle counts;
// integers keep any verification exact).
TensorF16 make_input(std::int64_t n, std::int64_t c1, std::int64_t h,
                     std::int64_t w, std::uint64_t seed = 1);

// Simple fixed-width text table.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void add_row(std::vector<std::string> cells);
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt_int(std::int64_t v);
std::string fmt_ratio(double v);
// Host wall-clock, printed as microseconds with one decimal.
std::string fmt_ns(std::int64_t ns);

// Shared banner explaining the metric.
void print_preamble(const std::string& what, const std::string& paper_ref);

// --- Machine-readable results (the cross-PR perf trajectory) ---
// Benches append one flat JSON object per configuration and write
// {"bench": ..., "rows": [...]} to a file (BENCH_pipeline.json by
// convention; CI parses it). Rows always carry the simulated cycle
// numbers AND the host wall-clock of the run, so both the model and the
// simulator's own speed are trackable across PRs.
class JsonReport {
 public:
  explicit JsonReport(std::string bench);

  // Starts a new row; subsequent field() calls land on it.
  JsonReport& row();
  JsonReport& field(const std::string& key, const std::string& value);
  JsonReport& field(const std::string& key, std::int64_t value);
  JsonReport& field(const std::string& key, bool value);
  // Serialized via json::number (locale-proof decimal separator).
  JsonReport& field(const std::string& key, double value);
  // The shared distribution-summary fields: "<prefix>_mean" / "_p50" /
  // "_p90" / "_p99" / "_p999" / "_max" from a stats::Summary
  // (common/percentile.h) -- the same summary shape the serving session
  // reports, so bench rows and serve stats stay comparable.
  JsonReport& summary_fields(const std::string& prefix,
                             const stats::Summary& s);
  // The standard per-run fields: cycles (overlapped makespan),
  // cycles_serial, host_ns, then the GM/MTE traffic bytes and the
  // bottleneck pipe (docs/OBSERVABILITY.md), so the perf trajectory
  // records *why* a row moved, not just that it did.
  JsonReport& run_fields(const Device::RunResult& run);

  // Serializes the report; write() also prints where it went.
  std::string to_json() const;
  void write(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<std::string> rows_;  // serialized "k":v pairs per row
};

// --- Profiling support (see docs/PROFILING.md) ---
// Benches that accept --profile=<out.json> record every core's
// instruction timeline and write it as Chrome trace_event JSON on exit.

// Enables the per-core instruction trace on every core of `dev`.
void enable_profiling(Device& dev);

// Writes dev's Chrome-trace JSON to `path` and prints where it went.
void write_profile(Device& dev, const std::string& path);

}  // namespace davinci::bench
