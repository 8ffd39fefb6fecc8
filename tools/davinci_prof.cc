// Attribution report viewer and perf-regression gate for the metrics /
// bench JSON files (docs/OBSERVABILITY.md).
//
//   davinci_prof <metrics-or-bench.json>
//       Pretty-prints the document: every field of the "serve" object,
//       the metrics entries and the bench rows through one generic
//       renderer (render_object), plus each entry's per-core cycle
//       attribution table.
//
//   davinci_prof --diff <baseline.json> <candidate.json> [flags]
//       Compares the candidate against the baseline; a gated cycle
//       metric above the baseline by more than its tolerance is a
//       regression (docs/OBSERVABILITY.md gives the diff's rules).
//
// --help prints the declared flags with their defaults.
//
// Exit codes: 0 ok / no regression, 1 regression found, 2 usage or parse
// error. CI diffs every bench run against the committed baselines in
// bench/baselines/ (see .github/workflows/ci.yml).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/json.h"
#include "sim/prof_report.h"

using namespace davinci;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  DV_CHECK(f.good()) << "cannot open " << path;
  std::ostringstream os;
  os << f.rdbuf();
  DV_CHECK(f.good() || f.eof()) << "failed reading " << path;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool diff = false;
  DiffOptions opts;
  std::vector<std::string> files;
  flags::Parser cli("davinci_prof",
                    "<report.json> | --diff <baseline.json> <candidate.json>");
  cli.flag("diff", &diff, "compare a candidate report against a baseline")
      .flag("tol", &opts.tol, "relative tolerance of the gated cycle metrics")
      .flag("tol", &opts.per_metric, "tolerance of one metric, e.g. cycles")
      .flag("include-host", &opts.include_host, "also gate host_* fields")
      .positional(&files, 1, 2);
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  if (files.size() != (diff ? 2u : 1u)) {
    return cli.fail(diff ? "--diff takes two reports" : "expected one report");
  }

  try {
    if (diff) {
      const json::Value base = json::parse(read_file(files[0]));
      const json::Value cand = json::parse(read_file(files[1]));
      const DiffResult r = diff_reports(base, cand, opts);
      std::printf("diff %s -> %s (tol %.4g%%, %d metrics)\n%s",
                  files[0].c_str(), files[1].c_str(), opts.tol * 100.0,
                  r.compared, r.report.c_str());
      if (r.regressed) {
        std::printf("FAIL: %d regression(s)\n", r.regressions);
        return 1;
      }
      std::printf("OK\n");
      return 0;
    }
    std::printf("%s", render_report(json::parse(read_file(files[0]))).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "davinci_prof: %s\n", e.what());
    return 2;
  }
}
