// davinci_tracegen: emits a seeded synthetic serving trace
// (serve/tracegen.h) in the davinci_serve line format.
//
//   davinci_tracegen [flags]
//
// --help prints the declared flags with their defaults; docs/CLUSTER.md
// explains the load they shape. The same flags and seed always produce
// byte-identical output, so a generated trace can be replayed at several
// --devices counts and the runs compared request-for-request (the CI
// cluster smoke gate).
//
// Exit codes: 0 success, 2 usage (an unknown or malformed flag, or
// options the generator rejects) or an unwritable --out.
#include <cstdio>
#include <exception>
#include <string>

#include "common/check.h"
#include "common/flags.h"
#include "serve/tracegen.h"

using namespace davinci;

int main(int argc, char** argv) {
  serve::TracegenOptions opts;
  std::string out_path;
  flags::Parser cli("davinci_tracegen");
  cli.flag("requests", &opts.requests, "expanded request total")
      .flag("seed", &opts.seed, "PRNG seed")
      .flag("hot-fraction", &opts.hot_fraction, "hot-set draw probability")
      .flag("hot-shapes", &opts.hot_shapes, "hot-set size")
      .flag("burst", &opts.burst_mean, "mean Poisson burst length")
      .flag("backward-fraction", &opts.backward_fraction, "backward-op share")
      .flag("deadline-us", &opts.deadline_us, "deadline budget (0 = none)")
      .flag("deadline-fraction", &opts.deadline_fraction, "share with deadline")
      .flag("max-n", &opts.max_n, "batch-axis size per request: 1 to N")
      .flag("out", &out_path, "write the trace here, not stdout");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  try {
    const std::string text = serve::trace_text(serve::generate_trace(opts));
    if (out_path.empty()) {
      std::fwrite(text.data(), 1, text.size(), stdout);
    } else {
      std::FILE* f = std::fopen(out_path.c_str(), "wb");
      DV_CHECK(f != nullptr) << "cannot open " << out_path;
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    }
  } catch (const std::exception& e) {
    return cli.fail(e.what());
  }
  return 0;
}
