#include "sim/metrics_registry.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/check.h"
#include "common/json.h"
#include "sim/metrics.h"

namespace davinci {

namespace {

// Locale-independent by construction; the old snprintf("%.9g") wrote ','
// decimals under comma-decimal locales, breaking the JSON.
std::string num(std::int64_t v) { return json::number(v); }

std::string num(double v) { return json::number(v); }

const char* kind_name(CritSegment::Kind k) {
  return k == CritSegment::Kind::kBusy ? "busy" : "stall";
}

std::string buckets_json(const PipeBuckets& b) {
  return "{\"busy\":" + num(b.busy) + ",\"wait\":" + num(b.wait) +
         ",\"flag\":" + num(b.flag) + ",\"idle\":" + num(b.idle) + "}";
}

std::string traffic_json(const MemTraffic& t) {
  std::string s = "{";
  s += "\"gm_to_l1\":" + num(t.gm_to_l1);
  s += ",\"gm_to_ub\":" + num(t.gm_to_ub);
  s += ",\"l1_to_ub\":" + num(t.l1_to_ub);
  s += ",\"l1_to_l0\":" + num(t.l1_to_l0);
  s += ",\"ub_to_l1\":" + num(t.ub_to_l1);
  s += ",\"ub_to_gm\":" + num(t.ub_to_gm);
  s += ",\"l1_to_gm\":" + num(t.l1_to_gm);
  s += ",\"l0c_to_ub\":" + num(t.l0c_to_ub);
  s += ",\"ub_to_l0c\":" + num(t.ub_to_l0c);
  s += ",\"im2col_bytes\":" + num(t.im2col_bytes);
  s += ",\"col2im_bytes\":" + num(t.col2im_bytes);
  s += ",\"ub_vector_bytes\":" + num(t.ub_vector_bytes);
  s += ",\"mte_total\":" + num(t.mte_total());
  s += ",\"gm_total\":" + num(t.gm_total());
  s += "}";
  return s;
}

std::string roofline_json(const Roofline& r) {
  std::string s = "{";
  s += "\"gm_bytes\":" + num(r.gm_bytes);
  s += ",\"mte_bytes\":" + num(r.mte_bytes);
  s += ",\"vector_slots\":" + num(r.vector_slots);
  s += ",\"achieved_gm_bytes_per_cycle\":" +
       num(r.achieved_gm_bytes_per_cycle);
  s += ",\"peak_gm_bytes_per_cycle\":" + num(r.peak_gm_bytes_per_cycle);
  s += ",\"arithmetic_intensity\":" + num(r.arithmetic_intensity);
  s += ",\"machine_balance\":" + num(r.machine_balance);
  s += ",\"class\":" + json::escape(r.klass());
  s += "}";
  return s;
}

std::string attribution_json(const DeviceAttribution& a) {
  std::string s = "{";
  s += "\"horizon\":" + num(a.horizon);
  s += ",\"critical_core\":" + num(static_cast<std::int64_t>(a.critical_core));
  s += ",\"path_truncated\":";
  s += a.path_truncated ? "true" : "false";
  s += ",\"cores\":[";
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    const CoreAttribution& ca = a.cores[c];
    if (c > 0) s += ",";
    s += "{\"core\":" + num(static_cast<std::int64_t>(ca.core)) + ",\"makespan\":" + num(ca.makespan) +
         ",\"pipes\":{";
    for (int p = 0; p < PipeScheduler::kNumPipes; ++p) {
      if (p > 0) s += ",";
      s += json::escape(to_string(static_cast<Pipe>(p))) + ":" +
           buckets_json(ca.pipes[p]);
    }
    s += "}}";
  }
  s += "]";
  // Head of the path verbatim, exact totals in the summary regardless of
  // how long it really is.
  const std::vector<CritSegment> path = a.critical_path();
  std::int64_t busy_total = 0, stall_total = 0;
  for (const CritSegment& seg : path) {
    (seg.kind == CritSegment::Kind::kBusy ? busy_total : stall_total) +=
        seg.length();
  }
  s += ",\"critical_path\":[";
  const std::size_t emit =
      std::min(path.size(), MetricsRegistry::kMaxPathSegments);
  for (std::size_t i = 0; i < emit; ++i) {
    const CritSegment& seg = path[i];
    if (i > 0) s += ",";
    s += "{\"pipe\":" + json::escape(to_string(seg.pipe)) +
         ",\"kind\":" + json::escape(kind_name(seg.kind)) +
         ",\"start\":" + num(seg.start) + ",\"end\":" + num(seg.end) + "}";
  }
  s += "],\"critical_path_summary\":{";
  s += "\"segments\":" + num(static_cast<std::int64_t>(path.size()));
  s += ",\"emitted\":" + num(static_cast<std::int64_t>(emit));
  s += ",\"busy_cycles\":" + num(busy_total);
  s += ",\"stall_cycles\":" + num(stall_total);
  s += "}}";
  return s;
}

}  // namespace

void MetricsRegistry::add(const std::string& name,
                          const Device::RunResult& run,
                          const ArchConfig& arch) {
  entries_.push_back({name, run, arch});
}

std::string MetricsRegistry::to_json() const {
  std::string s = "{\"schema\":\"davinci.metrics\",\"schema_version\":" +
                  std::to_string(kSchemaVersion) + ",";
  if (!serve_.empty()) s += "\"serve\":" + serve_ + ",";
  s += "\"entries\":[\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const Roofline roof =
        compute_roofline(e.run.aggregate.traffic, e.run.profile, e.arch,
                         e.run.device_cycles, e.run.cores_used);
    if (i > 0) s += ",\n";
    s += "{\"name\":" + json::escape(e.name);
    s += ",\"cycles\":" + num(e.run.device_cycles);
    s += ",\"cycles_serial\":" + num(e.run.device_cycles_serial);
    s += ",\"busiest_unit_cycles\":" + num(e.run.busiest_unit_cycles);
    s += ",\"host_ns\":" + num(e.run.host_ns);
    // Schema v4: where the host time went. Invariant:
    // alloc + plan + validate + execute == host_ns.
    s += ",\"host_alloc_ns\":" + num(e.run.host_alloc_ns);
    s += ",\"host_plan_ns\":" + num(e.run.host_plan_ns);
    s += ",\"host_validate_ns\":" + num(e.run.host_validate_ns);
    s += ",\"host_execute_ns\":" + num(e.run.host_execute_ns);
    s += ",\"cores_used\":" + num(static_cast<std::int64_t>(e.run.cores_used));
    s += ",\"traffic\":" + traffic_json(e.run.aggregate.traffic);
    s += ",\"roofline\":" + roofline_json(roof);
    s += ",\"attribution\":" + attribution_json(e.run.attribution);
    s += "}";
  }
  s += "\n]}\n";
  return s;
}

void MetricsRegistry::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  DV_CHECK(f.good()) << "cannot open metrics output file " << path;
  const std::string s = to_json();
  f.write(s.data(), static_cast<std::streamsize>(s.size()));
  DV_CHECK(f.good()) << "failed writing metrics output file " << path;
  std::printf("metrics: wrote %zu entr%s to %s\n", entries_.size(),
              entries_.size() == 1 ? "y" : "ies", path.c_str());
}

}  // namespace davinci
