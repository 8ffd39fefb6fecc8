// Versioned metrics JSON: the stable machine-readable surface of the
// observability layer (docs/OBSERVABILITY.md).
//
// A MetricsRegistry collects named runs (one per kernel invocation or
// pipeline layer), derives the roofline from each run's aggregate
// counters, and serializes everything under a schema marker:
//
//   { "schema": "davinci.metrics", "schema_version": 8, "entries": [
//       { "name": ..., "cycles": ..., "cycles_serial": ...,
//         "traffic": { per-route bytes }, "roofline": { ... },
//         "attribution": { "horizon", "critical_core", "cores": [
//             { "core", "makespan", "pipes": { per-pipe buckets } } ],
//           "critical_path": [ head segments ],
//           "critical_path_summary": { totals } } } ] }
//
// Schema version 2 adds an optional top-level "serve" object -- the
// serving-session statistics (queue depths, batch sizes, plan-cache hit
// rates, host-side latency percentiles) attached via
// set_serve(session.serve_json()). Version 3 extends "serve" with the
// robustness surface: "expired" / "shed" / "rejected" / "cancelled"
// request counters, "overload_policy", "watchdog_alarms" and a nested
// "resilience" object (degraded_launches, bisections, poisoned_requests,
// launch_failures, quarantined_cores and the summed FaultStats).
// Version 4 splits each entry's "host_ns" into the attribution buckets
// "host_alloc_ns" / "host_plan_ns" / "host_validate_ns" /
// "host_execute_ns" (invariant: they sum to host_ns; see
// Device::RunResult). Version 5 extends "serve" with the async
// instruction-stream VM object ("vm": enabled/in_flight/launches/
// makespan/serial_sum/overlap_cycles/window_stalls/hazard_stalls plus
// per-pipe "streams" occupancy buckets where busy + wait + flag + idle
// == makespan * tracks exactly; docs/ASYNC_VM.md). Version 6 extends
// "serve" again: the latency objects ("host_latency_us" /
// "host_queue_wait_us") gain "p999", a "hist" sub-object (sparse
// log-linear buckets from common/histogram.h plus a dropped-sample
// counter -- offline-mergeable, any percentile re-derivable) and an
// "exact" sub-object (the first kLatencySampleCap samples' percentiles
// with a "complete" flag for cross-checking the histogram), and the
// top-level "serve" adds "queue_depth" plus a "request_trace" object
// (lifecycle ring capacity / recorded / dropped / by_kind counters;
// serve/request_trace.h). Version 7 extends "serve" with a "cluster"
// object (serve/cluster.h): device count, placement, link parameters,
// sharded-launch and redistribution counters, "per_device" rows
// (launches / blocks / cycles / inflight_shards / vm_makespan) and a
// sparse "links" array of non-zero src->dst transfer totals, plus the
// top-level "makespan" roofline (max of busiest device VM makespan and
// busiest link busy cycles; docs/CLUSTER.md). Version 8 drops each
// entry's optimistic busiest-pipe bound, which the PipeScheduler makespan
// ("cycles") superseded. Version-1..7 documents are still accepted by all
// in-tree consumers; they simply lack the newer keys.
//
// Consumers (tools/davinci_prof.cc, CI) key on schema/schema_version;
// any breaking field change must bump kSchemaVersion. The critical path
// is emitted head-truncated at kMaxPathSegments with exact totals in the
// summary, so files stay bounded for long runs.
//
// Surfaced as --metrics=<out.json> in davinci_pool_cli and the bench
// harness, and per-layer by nets::Pipeline.
#pragma once

#include <string>
#include <vector>

#include "sim/device.h"

namespace davinci {

class MetricsRegistry {
 public:
  static constexpr int kSchemaVersion = 8;
  // Critical-path segments serialized verbatim before head-truncation.
  static constexpr std::size_t kMaxPathSegments = 1024;

  // Records one named run; the roofline is derived from run.aggregate and
  // `arch` at serialization time.
  void add(const std::string& name, const Device::RunResult& run,
           const ArchConfig& arch);

  // Attaches the serving-session statistics as the document's top-level
  // "serve" object. `json_object` must be a serialized JSON object
  // (serve::Session::serve_json owns its field layout).
  // Empty string removes the object again.
  void set_serve(std::string json_object) { serve_ = std::move(json_object); }
  bool has_serve() const { return !serve_.empty(); }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  std::string to_json() const;
  // Writes to_json() to `path` and prints where it went.
  void write(const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    Device::RunResult run;
    ArchConfig arch;
  };
  std::vector<Entry> entries_;
  std::string serve_;  // serialized "serve" object, empty = absent
};

}  // namespace davinci
