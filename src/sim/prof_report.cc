#include "sim/prof_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

namespace davinci {

namespace {

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string fmt_num(const json::Value& v) {
  if (v.is_int()) return std::to_string(v.as_int());
  return fmt(v.as_double());
}

std::string pct_of(std::int64_t part, std::int64_t whole) {
  if (whole <= 0) return "0%";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(part) /
                    static_cast<double>(whole));
  return buf;
}

std::int64_t int_or(const json::Value& obj, const char* key,
                    std::int64_t fallback) {
  const json::Value* v = obj.get(key);
  return (v != nullptr && v->is_int()) ? v->as_int() : fallback;
}

// --- Rendering ---------------------------------------------------------

void render_attribution(const json::Value& attr, std::string* out) {
  const std::int64_t horizon = int_or(attr, "horizon", 0);
  *out += "  attribution (horizon " + std::to_string(horizon) +
          " cycles, critical core " +
          std::to_string(int_or(attr, "critical_core", -1)) + "):\n";
  char line[160];
  std::snprintf(line, sizeof(line), "    %-6s %-8s %12s %12s %12s %12s\n",
                "core", "pipe", "busy", "wait", "flag", "idle");
  *out += line;
  for (const json::Value& core : attr.at("cores").as_array()) {
    const std::int64_t id = int_or(core, "core", -1);
    for (const auto& [pipe, b] : core.at("pipes").as_object()) {
      std::snprintf(
          line, sizeof(line),
          "    %-6lld %-8s %5lld (%s) %5lld (%s) %5lld (%s) %5lld (%s)\n",
          static_cast<long long>(id), pipe.c_str(),
          static_cast<long long>(int_or(b, "busy", 0)),
          pct_of(int_or(b, "busy", 0), horizon).c_str(),
          static_cast<long long>(int_or(b, "wait", 0)),
          pct_of(int_or(b, "wait", 0), horizon).c_str(),
          static_cast<long long>(int_or(b, "flag", 0)),
          pct_of(int_or(b, "flag", 0), horizon).c_str(),
          static_cast<long long>(int_or(b, "idle", 0)),
          pct_of(int_or(b, "idle", 0), horizon).c_str());
      *out += line;
    }
  }
  if (const json::Value* sum = attr.get("critical_path_summary")) {
    *out += "  critical path: " +
            std::to_string(int_or(*sum, "segments", 0)) + " segments, busy " +
            std::to_string(int_or(*sum, "busy_cycles", 0)) + " + stall " +
            std::to_string(int_or(*sum, "stall_cycles", 0)) + " = " +
            std::to_string(int_or(*sum, "busy_cycles", 0) +
                           int_or(*sum, "stall_cycles", 0)) +
            " cycles\n";
  }
}

// A scalar as the renderer prints it: integers exact, other numbers to
// four significant digits (whole units from 1e4 up, never an exponent
// there), strings bare.
std::string scalar_text(const json::Value& v) {
  if (v.is_int()) return std::to_string(v.as_int());
  if (v.is_number()) {
    const double d = v.as_double();
    char buf[48];
    std::snprintf(buf, sizeof(buf), std::abs(d) < 1e4 ? "%.4g" : "%.0f", d);
    return buf;
  }
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  return "null";
}

bool is_object_array(const json::Value& v) {
  return v.is_array() && !v.as_array().empty() &&
         std::all_of(v.as_array().begin(), v.as_array().end(),
                     [](const json::Value& e) { return e.is_object(); });
}

// The generic object renderer behind render_object (see header).
void render_tree(const std::string& label, const json::Value& obj,
                 int depth, std::string* out) {
  std::string line(static_cast<std::size_t>(2 * depth), ' ');
  line += label;
  if (!label.empty()) line += ":";
  const char* sep = label.empty() ? "" : " ";
  for (const auto& [key, v] : obj.as_object()) {
    if (v.is_object() || is_object_array(v)) continue;
    line += sep;
    sep = ", ";
    line += key;
    if (v.is_array()) {
      line += " [";
      line += std::to_string(v.as_array().size());
      line += "]";
    } else {
      line += " ";
      line += scalar_text(v);
    }
  }
  *out += line + "\n";
  for (const auto& [key, v] : obj.as_object()) {
    if (v.is_object()) {
      render_tree(key, v, depth + 1, out);
    } else if (is_object_array(v)) {
      const json::Array& rows = v.as_array();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        std::string row = key;
        row += "[";
        row += std::to_string(i);
        row += "]";
        render_tree(row, rows[i], depth + 1, out);
      }
    }
  }
}

// One metrics entry: labeled by its name, the other fields through the
// generic renderer, then the per-core attribution table with
// percent-of-horizon columns.
void render_metrics_entry(const json::Value& e, std::string* out) {
  json::Object fields = e.as_object();
  fields.erase("name");
  fields.erase("attribution");
  render_tree("entry " + e.at("name").as_string(),
              json::Value(std::move(fields)), 0, out);
  if (const json::Value* attr = e.get("attribution")) {
    render_attribution(*attr, out);
  }
}

// --- Diffing -----------------------------------------------------------

// Cycle-like metrics where larger is strictly worse; only these gate the
// diff (see header).
bool gated_metric(const std::string& key) {
  static const std::set<std::string> kGated = {
      "cycles", "cycles_serial", "horizon", "makespan",
  };
  return kGated.count(key) > 0;
}

bool host_metric(const std::string& key) {
  return key.rfind("host", 0) == 0;
}

struct DiffWalker {
  const DiffOptions& opts;
  DiffResult result;

  double tolerance_for(const std::string& key) const {
    auto it = opts.per_metric.find(key);
    return it == opts.per_metric.end() ? opts.tol : it->second;
  }

  void note(const std::string& line) { result.report += line + "\n"; }

  void compare_number(const std::string& path, const std::string& key,
                      const json::Value& a, const json::Value& b) {
    if (host_metric(key) && !opts.include_host) return;
    result.compared += 1;
    const double av = a.as_double();
    const double bv = b.as_double();
    if (av == bv) return;
    const double tol = tolerance_for(key);
    const double base = std::abs(av);
    const double delta = bv - av;
    const double rel = base > 0.0 ? delta / base : (delta > 0 ? 1e9 : -1e9);
    const bool beyond = std::abs(delta) > base * tol;
    if (gated_metric(key) || (host_metric(key) && opts.include_host)) {
      if (delta > 0 && beyond) {
        result.regressed = true;
        result.regressions += 1;
        note("REGRESSION " + path + ": " + fmt_num(a) + " -> " + fmt_num(b) +
             " (" + fmt(rel * 100.0) + "% > tol " + fmt(tol * 100.0) + "%)");
      } else if (beyond) {
        note("improved   " + path + ": " + fmt_num(a) + " -> " + fmt_num(b) +
             " (" + fmt(rel * 100.0) + "%)");
      }
    } else if (beyond) {
      note("changed    " + path + ": " + fmt_num(a) + " -> " + fmt_num(b) +
           " (" + fmt(rel * 100.0) + "%)");
    }
  }

  void compare(const std::string& path, const json::Value& a,
               const json::Value& b) {
    if (a.is_number() && b.is_number()) {
      const std::size_t slash = path.find_last_of('.');
      const std::string key =
          slash == std::string::npos ? path : path.substr(slash + 1);
      compare_number(path, key, a, b);
      return;
    }
    if (a.kind() != b.kind()) {
      note("shape      " + path + ": value kind changed");
      return;
    }
    if (a.is_object()) {
      for (const auto& [k, av] : a.as_object()) {
        const json::Value* bv = b.get(k);
        if (bv == nullptr) {
          note("shape      " + path + "." + k + ": missing in candidate");
          continue;
        }
        compare(path.empty() ? k : path + "." + k, av, *bv);
      }
      for (const auto& [k, bv] : b.as_object()) {
        (void)bv;
        if (!a.has(k)) {
          note("shape      " + path + "." + k + ": new in candidate");
        }
      }
      return;
    }
    if (a.is_array()) {
      const json::Array& aa = a.as_array();
      const json::Array& ba = b.as_array();
      if (aa.size() != ba.size()) {
        note("shape      " + path + ": array length " +
             std::to_string(aa.size()) + " -> " + std::to_string(ba.size()));
      }
      const std::size_t n = aa.size() < ba.size() ? aa.size() : ba.size();
      for (std::size_t i = 0; i < n; ++i) {
        compare(path + "[" + label_for(aa[i], i) + "]", aa[i], ba[i]);
      }
      return;
    }
    if (a.is_string() && a.as_string() != b.as_string()) {
      note("changed    " + path + ": '" + a.as_string() + "' -> '" +
           b.as_string() + "'");
    } else if (a.is_bool() && a.as_bool() != b.as_bool()) {
      note("changed    " + path + ": " + (a.as_bool() ? "true" : "false") +
           " -> " + (b.as_bool() ? "true" : "false"));
    }
  }

  // Rows/entries are labeled by their string identity fields when present
  // (name, shape, impl...) so findings are readable.
  static std::string label_for(const json::Value& v, std::size_t index) {
    if (v.is_object()) {
      for (const char* key : {"name", "shape", "impl", "net", "layer"}) {
        const json::Value* f = v.get(key);
        if (f != nullptr && f->is_string()) return f->as_string();
      }
      const json::Value* core = v.get("core");
      if (core != nullptr && core->is_int()) {
        return "core" + std::to_string(core->as_int());
      }
    }
    return std::to_string(index);
  }
};

}  // namespace

std::string render_report(const json::Value& doc) {
  std::string out;
  const json::Value* schema = doc.get("schema");
  if (schema != nullptr && schema->is_string() &&
      schema->as_string() == "davinci.metrics") {
    out += "davinci.metrics v" +
           std::to_string(int_or(doc, "schema_version", 0)) + ", " +
           std::to_string(doc.at("entries").as_array().size()) +
           " entr" +
           (doc.at("entries").as_array().size() == 1 ? "y" : "ies") + "\n";
    if (const json::Value* serve = doc.get("serve")) {
      render_tree("serve", *serve, 0, &out);
    }
    for (const json::Value& e : doc.at("entries").as_array()) {
      render_metrics_entry(e, &out);
    }
    return out;
  }
  if (doc.has("bench") && doc.has("rows")) {
    render_tree("", doc, 0, &out);
    return out;
  }
  throw Error(
      "unrecognized document: expected a davinci.metrics file or a bench "
      "JsonReport ({\"bench\",\"rows\"})");
}

std::string render_object(const std::string& label, const json::Value& obj) {
  std::string out;
  render_tree(label, obj, 0, &out);
  return out;
}

DiffResult diff_reports(const json::Value& a, const json::Value& b,
                        const DiffOptions& opts) {
  DiffWalker w{opts, {}};
  w.compare("", a, b);
  if (w.result.report.empty()) {
    w.result.report = "no differences beyond tolerance (" +
                      std::to_string(w.result.compared) +
                      " metrics compared)\n";
  }
  return w.result;
}

}  // namespace davinci
