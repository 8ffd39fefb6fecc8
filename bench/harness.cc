#include "harness.h"

#include <cstdio>
#include <fstream>

#include "common/check.h"
#include "common/json.h"
#include "sim/metrics.h"
#include "sim/trace_export.h"

namespace davinci::bench {

TensorF16 make_input(std::int64_t n, std::int64_t c1, std::int64_t h,
                     std::int64_t w, std::uint64_t seed) {
  TensorF16 t(Shape{n, c1, h, w, kC0});
  t.fill_random_ints(seed);
  return t;
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    widths[i] = columns_[i].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      if (row[i].size() > widths[i]) widths[i] = row[i].size();
    }
  }
  std::printf("\n== %s ==\n", title_.c_str());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    std::printf("%-*s  ", static_cast<int>(widths[i]), columns_[i].c_str());
  }
  std::printf("\n");
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    std::printf("%s  ", std::string(widths[i], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
    }
    std::printf("\n");
  }
}

std::string fmt_int(std::int64_t v) { return std::to_string(v); }

std::string fmt_ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", v);
  return buf;
}

std::string fmt_ns(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fus",
                static_cast<double>(ns) / 1000.0);
  return buf;
}

JsonReport::JsonReport(std::string bench) : bench_(std::move(bench)) {}

JsonReport& JsonReport::row() {
  rows_.emplace_back();
  return *this;
}

JsonReport& JsonReport::field(const std::string& key,
                              const std::string& value) {
  DV_CHECK(!rows_.empty()) << "field() before row()";
  std::string& r = rows_.back();
  if (!r.empty()) r += ",";
  r += json::escape(key) + ":" + json::escape(value);
  return *this;
}

JsonReport& JsonReport::field(const std::string& key, std::int64_t value) {
  DV_CHECK(!rows_.empty()) << "field() before row()";
  std::string& r = rows_.back();
  if (!r.empty()) r += ",";
  r += json::escape(key) + ":" + std::to_string(value);
  return *this;
}

JsonReport& JsonReport::field(const std::string& key, bool value) {
  DV_CHECK(!rows_.empty()) << "field() before row()";
  std::string& r = rows_.back();
  if (!r.empty()) r += ",";
  r += json::escape(key) + (value ? ":true" : ":false");
  return *this;
}

JsonReport& JsonReport::field(const std::string& key, double value) {
  DV_CHECK(!rows_.empty()) << "field() before row()";
  std::string& r = rows_.back();
  if (!r.empty()) r += ",";
  r += json::escape(key) + ":" + json::number(value);
  return *this;
}

JsonReport& JsonReport::summary_fields(const std::string& prefix,
                                       const stats::Summary& s) {
  field(prefix + "_mean", s.mean);
  field(prefix + "_p50", s.p50);
  field(prefix + "_p90", s.p90);
  field(prefix + "_p99", s.p99);
  field(prefix + "_p999", s.p999);
  field(prefix + "_max", s.max);
  return *this;
}

JsonReport& JsonReport::run_fields(const Device::RunResult& run) {
  field("cycles", run.device_cycles);
  field("cycles_serial", run.device_cycles_serial);
  field("busiest_unit_cycles", run.busiest_unit_cycles);
  field("host_ns", run.host_ns);
  return *this;
}

JsonReport& JsonReport::traffic_fields(const Device::RunResult& run,
                                       const ArchConfig& arch) {
  const Roofline roof = compute_roofline(run.aggregate.traffic, run.profile,
                                         arch, run.device_cycles,
                                         run.cores_used);
  field("gm_bytes", roof.gm_bytes);
  field("mte_bytes", roof.mte_bytes);
  field("roofline", std::string(roof.klass()));
  return *this;
}

std::string JsonReport::to_json() const {
  std::string out = "{\"bench\":";
  out += json::escape(bench_);
  out += ",\"rows\":[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += "{" + rows_[i] + "}";
    if (i + 1 < rows_.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

void JsonReport::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  DV_CHECK(f.good()) << "cannot open bench JSON output file " << path;
  const std::string json = to_json();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  DV_CHECK(f.good()) << "failed writing bench JSON output file " << path;
  std::printf("\njson: wrote bench results to %s\n", path.c_str());
}

void enable_profiling(Device& dev) {
  for (int c = 0; c < dev.num_cores(); ++c) dev.core(c).trace().enable();
}

void write_profile(Device& dev, const std::string& path) {
  write_chrome_trace(path, dev);
  std::printf("\nprofile: wrote Chrome trace to %s (open in chrome://tracing "
              "or ui.perfetto.dev)\n", path.c_str());
}

void print_preamble(const std::string& what, const std::string& paper_ref) {
  std::printf("%s\n", std::string(72, '=').c_str());
  std::printf("%s\n", what.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf(
      "Metric: simulated AI-Core cycle counts (deterministic; the paper's\n"
      "hardware counters averaged 10 runs -- see EXPERIMENTS.md for the\n"
      "paper-vs-simulator comparison).\n");
  std::printf("%s\n", std::string(72, '=').c_str());
}

}  // namespace davinci::bench
