// Human-readable rendering and regression diffing of the observability
// JSON files (the backend of tools/davinci_prof.cc; see
// docs/OBSERVABILITY.md).
//
// Two document shapes are understood:
//  * the versioned metrics schema written by MetricsRegistry
//    ("schema": "davinci.metrics"): the "serve" object and each entry go
//    through render_object, and each entry's attribution is a per-core
//    table with percent-of-horizon columns;
//  * the bench JsonReport shape ({"bench": ..., "rows": [...]}), rendered
//    by render_object as a whole.
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

// Renders any JSON object generically, so every key a writer adds shows
// up without a renderer change. The object prints as one line
// "label: key value, key value, ..." of its scalar members in key order,
// with arrays that do not hold objects shown by length ("key [n]"). Each
// nested object, and each element of an array of objects (labeled
// "key[i]"), follows on its own lines, indented two more spaces.
std::string render_object(const std::string& label, const json::Value& obj);

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
