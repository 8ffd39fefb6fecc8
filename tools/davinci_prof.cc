// Attribution report viewer and perf-regression gate for the metrics /
// bench JSON files (docs/OBSERVABILITY.md).
//
//   davinci_prof <metrics-or-bench.json>
//       Pretty-prints the document: every field of the "serve" object,
//       the metrics entries and the bench rows through one generic
//       renderer (render_object), plus each entry's per-core cycle
//       attribution table.
//
//   davinci_prof --diff <baseline.json> <candidate.json>
//                [--tol=0.05] [--tol:<metric>=X] [--include-host]
//       Compares the candidate against the baseline. Cycle-like metrics
//       (cycles, cycles_serial, busiest_unit_cycles, horizon, makespan)
//       regress the build when the candidate exceeds the baseline by
//       more than the tolerance; other numeric drifts are reported but do
//       not fail. host_* wall-clock fields are ignored unless
//       --include-host (the simulator is deterministic, the host machine
//       is not). --tol:<metric>=X overrides the tolerance for one field
//       name, e.g. --tol:cycles=0 for an exact cycle gate.
//
// Exit codes: 0 ok / no regression, 1 regression found, 2 usage or parse
// error. CI diffs every bench run against the committed baselines in
// bench/baselines/ (see .github/workflows/ci.yml).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "sim/prof_report.h"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  DV_CHECK(f.good()) << "cannot open " << path;
  std::ostringstream os;
  os << f.rdbuf();
  DV_CHECK(f.good() || f.eof()) << "failed reading " << path;
  return os.str();
}

void usage() {
  std::fprintf(stderr,
               "usage: davinci_prof <report.json>\n"
               "       davinci_prof --diff <baseline.json> <candidate.json>"
               " [--tol=0.05] [--tol:<metric>=X] [--include-host]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using davinci::DiffOptions;
  using davinci::DiffResult;

  bool diff = false;
  bool include_host = false;
  double tol = 0.05;
  std::map<std::string, double> per_metric;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--diff") {
      diff = true;
    } else if (arg == "--include-host") {
      include_host = true;
    } else if (arg.rfind("--tol:", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos || eq <= 6) {
        std::fprintf(stderr, "davinci_prof: malformed %s\n", arg.c_str());
        usage();
        return 2;
      }
      try {
        per_metric[arg.substr(6, eq - 6)] = std::stod(arg.substr(eq + 1));
      } catch (const std::exception&) {
        std::fprintf(stderr, "davinci_prof: bad tolerance in %s\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--tol=", 0) == 0) {
      try {
        tol = std::stod(arg.substr(6));
      } catch (const std::exception&) {
        std::fprintf(stderr, "davinci_prof: bad tolerance in %s\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "davinci_prof: unknown flag %s\n", arg.c_str());
      usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  try {
    if (diff) {
      if (files.size() != 2) {
        usage();
        return 2;
      }
      const davinci::json::Value base =
          davinci::json::parse(read_file(files[0]));
      const davinci::json::Value cand =
          davinci::json::parse(read_file(files[1]));
      DiffOptions opts;
      opts.tol = tol;
      opts.per_metric = per_metric;
      opts.include_host = include_host;
      const DiffResult r = davinci::diff_reports(base, cand, opts);
      std::printf("diff %s -> %s (tol %.4g%%, %d metrics)\n%s",
                  files[0].c_str(), files[1].c_str(), tol * 100.0,
                  r.compared, r.report.c_str());
      if (r.regressed) {
        std::printf("FAIL: %d regression(s)\n", r.regressions);
        return 1;
      }
      std::printf("OK\n");
      return 0;
    }
    if (files.size() != 1) {
      usage();
      return 2;
    }
    const davinci::json::Value doc =
        davinci::json::parse(read_file(files[0]));
    std::printf("%s", davinci::render_report(doc).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "davinci_prof: %s\n", e.what());
    return 2;
  }
}
