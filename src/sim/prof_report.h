// Human-readable rendering and regression diffing of the observability
// JSON files (the backend of tools/davinci_prof.cc; see
// docs/OBSERVABILITY.md).
//
// Two document shapes are understood:
//  * the versioned metrics schema written by MetricsRegistry
//    ("schema": "davinci.metrics"), rendered as per-entry attribution /
//    roofline reports;
//  * the bench JsonReport shape ({"bench": ..., "rows": [...]}), rendered
//    as a row table.
//
// diff_reports() walks both documents recursively. Cycle-like metrics
// (cycles, cycles_serial, busiest_unit_cycles, horizon, makespan) are
// *gated*: if b exceeds a by more than the tolerance the diff reports a
// regression and the tool exits nonzero. All other numeric fields are
// informational -- drifts beyond tolerance are listed but do not fail the
// build (byte counts and occupancies have no universal "worse"
// direction). host_* fields are skipped entirely unless
// opts.include_host: wall-clock is not deterministic, cycle counts are.
#pragma once

#include <map>
#include <string>

#include "common/json.h"

namespace davinci {

// Pretty-prints a parsed metrics or bench document.
std::string render_report(const json::Value& doc);

struct DiffOptions {
  double tol = 0.05;  // default relative tolerance
  // Per-metric overrides, keyed by field name (e.g. "cycles": 0.0).
  std::map<std::string, double> per_metric;
  bool include_host = false;  // also gate host_* wall-clock fields
};

struct DiffResult {
  bool regressed = false;
  int compared = 0;      // numeric fields compared
  int regressions = 0;   // gated fields beyond tolerance
  std::string report;    // human-readable findings
};

// Diffs `b` (candidate) against `a` (baseline).
DiffResult diff_reports(const json::Value& a, const json::Value& b,
                        const DiffOptions& opts);

}  // namespace davinci
