// Chaos soak for the serving layer: replays a pooling request trace
// through serve::Session under a matrix of seeded FaultPlans and checks
// the robustness contract (docs/SERVING.md, docs/RESILIENCE.md):
//
//   * every submitted future resolves -- a value or an exception, never
//     a hang -- whatever the fault mix does to the launches;
//   * every *successful* response is bit-identical to a fault-free run
//     of the same request (silent-fault mixes run with store-path
//     verification on, so corruption is caught and retried, not served).
//
// Each seed pairs one fault mix (bit flips, MTE drops, SCU errors,
// detected vector faults, hard core failures) with its own PRNG stream,
// so the soak covers distinct fault placements run after run while
// staying fully replayable.
//
// Exit code 0 iff zero unresolved futures and zero mismatches, 2 on a
// usage error or an unreadable trace; CI gates on it plus the JSON
// totals (BENCH_serve_chaos.json).
#include <chrono>
#include <cstdio>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "sim/fault.h"

using namespace davinci;

namespace {

// One mix per chaos dimension plus compound mixes; seeds cycle through.
const char* kMixes[] = {
    "bitflip:ub:1e-6",
    "mte_drop:1e-3",
    "core_fail@3",
    "bitflip:l1:1e-6,core_fail@5",
    "mte_drop:5e-4,bitflip:ub:5e-7",
    "vec_fault:1e-5,core_fail@1@2",
    "scu_err:1e-4",
    "bitflip:ub:5e-7,mte_drop:2e-4,core_fail@7",
};
constexpr int kNumMixes = static_cast<int>(sizeof(kMixes) / sizeof(*kMixes));

// The embedded default workload (same shape as traces/serve_chaos.trace):
// modest geometries, mixed batch sizes, every operator family, one line
// with a generous (never-expiring) deadline.
const char* kDefaultTrace =
    "op=maxpool n=1 c1=4 ih=35 iw=35 k=3 s=2 impl=im2col x=4 "
    "deadline_us=60000000\n"
    "op=maxpool n=2 c1=4 ih=35 iw=35 k=3 s=2 impl=im2col x=2\n"
    "op=maxpool n=1 c1=12 ih=71 iw=71 k=3 s=2 impl=im2col x=2\n"
    "op=avgpool n=1 c1=4 ih=35 iw=35 k=3 s=2 impl=im2col x=2\n"
    "op=maxpool_mask n=1 c1=4 ih=56 iw=56 k=3 s=2 impl=im2col x=2\n"
    "op=maxpool_bwd n=1 c1=4 ih=56 iw=56 k=3 s=2 merge=col2im x=2\n"
    "op=avgpool_bwd n=1 c1=4 ih=56 iw=56 k=3 s=2 merge=vadd x=2\n"
    "op=global_avgpool n=1 c1=64 ih=8 iw=8 x=2\n";

bool same_tensor(const TensorF16& a, const TensorF16& b) {
  // A rank-0 tensor is an absent result slot (size() reports 1, the
  // empty product, but owns no data) -- equal iff both are absent.
  if (a.shape().rank() != b.shape().rank()) return false;
  if (a.shape().rank() == 0) return true;
  if (a.size() != b.size()) return false;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    if (!(a.flat(i) == b.flat(i))) return false;
  }
  return true;
}

bool same_result(const kernels::PoolResult& a, const kernels::PoolResult& b) {
  return same_tensor(a.out, b.out) && same_tensor(a.mask, b.mask) &&
         same_tensor(a.grad_in, b.grad_in);
}

struct SeedOutcome {
  std::string spec;
  std::uint64_t seed = 0;
  std::int64_t requests = 0;
  std::int64_t unresolved = 0;  // futures still pending after the grace
  std::int64_t completed = 0;
  std::int64_t failed = 0;      // resolved with an exception (still OK)
  std::int64_t mismatches = 0;  // successes differing from fault-free
  serve::SessionStats stats;
};

}  // namespace

int main(int argc, char** argv) {
  int seeds = 8, retries = 4;
  std::string trace_path, json_path;
  flags::Parser cli("bench_serve_chaos");
  cli.flag("seeds", &seeds, "fault-plan seeds, one fault mix each")
      .flag("retries", &retries, "per-block retry budget")
      .flag("trace", &trace_path, "replay this trace (none = built-in)")
      .flag("json", &json_path, "write the per-seed rows here");
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  if (seeds < 1) return cli.fail("--seeds must be at least 1");
  bench::print_preamble(
      "Chaos soak: trace replay through serve::Session under seeded "
      "fault plans (every future resolves; successes bit-exact)",
      "robustness harness for the serving layer, not a paper figure");

  std::vector<serve::TraceEntry> entries;
  try {
    entries = trace_path.empty() ? serve::parse_trace(kDefaultTrace)
                                 : serve::load_trace(trace_path);
  } catch (const Error& e) {
    return cli.fail(e.what());
  }

  std::vector<serve::MaterializedRequest> requests;
  std::vector<std::size_t> request_entry;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (int r = 0; r < entries[i].repeat; ++r) {
      requests.push_back(
          serve::materialize(entries[i], i * 1000 + std::uint64_t(r)));
      request_entry.push_back(i);
    }
  }

  // Fault-free ground truth, one lone launch per request: the session
  // already guarantees bit-exactness to this on the happy path, so any
  // chaos-run divergence is a served-corruption bug.
  Device lone;
  lone.set_double_buffer(true);
  std::vector<kernels::PoolResult> truth;
  truth.reserve(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    truth.push_back(kernels::run_pool(lone, entries[request_entry[r]].op,
                                      requests[r].inputs()));
  }

  bench::Table table("Chaos soak, " + std::to_string(requests.size()) +
                         " requests per seed",
                     {"seed", "fault mix", "completed", "failed",
                      "unresolved", "mismatch", "degraded", "bisect",
                      "quarantined", "verdict"});
  bench::JsonReport report("serve_chaos");

  std::vector<SeedOutcome> outcomes;
  for (int s = 0; s < seeds; ++s) {
    SeedOutcome o;
    o.spec = kMixes[s % kNumMixes];
    o.seed = 1000 + static_cast<std::uint64_t>(s) * 17;
    o.requests = static_cast<std::int64_t>(requests.size());

    serve::SessionOptions opts;
    ResilienceOptions res;
    res.plan = FaultPlan::parse(o.spec, o.seed);
    // Silent-corruption sites need store-path verification, or absorbed
    // faults would legitimately serve corrupted bits.
    res.verify = res.plan.has_silent_sites();
    res.max_retries = retries;
    opts.resilience = res;

    {
      // The session owns its settings' rules (a negative --retries); a
      // setting it rejects is a usage error.
      std::optional<serve::Session> owned;
      try {
        owned.emplace(serve::Cluster{}, opts);
      } catch (const Error& e) {
        return cli.fail(e.what());
      }
      serve::Session& session = *owned;
      std::vector<std::future<kernels::PoolResult>> futures;
      futures.reserve(requests.size());
      for (std::size_t r = 0; r < requests.size(); ++r) {
        const serve::TraceEntry& e = entries[request_entry[r]];
        futures.push_back(session.submit(
            e.op, requests[r].inputs(),
            serve::SubmitOptions{.deadline_us = e.deadline_us,
                                 .prio = e.prio}));
      }
      session.drain(std::chrono::microseconds(120'000'000));
      for (std::size_t r = 0; r < futures.size(); ++r) {
        if (futures[r].wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
          o.unresolved += 1;
          continue;
        }
        try {
          const kernels::PoolResult got = futures[r].get();
          o.completed += 1;
          if (!same_result(got, truth[r])) o.mismatches += 1;
        } catch (const Error&) {
          o.failed += 1;  // resolved: the contract holds
        }
      }
      o.stats = session.stats();
    }

    const bool ok = o.unresolved == 0 && o.mismatches == 0;
    table.add_row({std::to_string(o.seed), o.spec,
                   bench::fmt_int(o.completed), bench::fmt_int(o.failed),
                   bench::fmt_int(o.unresolved), bench::fmt_int(o.mismatches),
                   bench::fmt_int(o.stats.degraded_launches),
                   bench::fmt_int(o.stats.bisections),
                   bench::fmt_int(o.stats.faults.cores_quarantined),
                   ok ? "ok" : "VIOLATION"});
    report.row()
        .field("name", std::string("chaos ") + o.spec)
        .field("seed", static_cast<std::int64_t>(o.seed))
        .field("requests", o.requests)
        .field("resolved", o.completed + o.failed)
        .field("unresolved", o.unresolved)
        .field("completed", o.completed)
        .field("failed", o.failed)
        .field("mismatches", o.mismatches)
        .field("degraded_launches", o.stats.degraded_launches)
        .field("bisections", o.stats.bisections)
        .field("poisoned_requests", o.stats.poisoned_requests)
        .field("quarantined", o.stats.faults.cores_quarantined)
        .field("faults_injected", o.stats.faults.faults_injected)
        .field("faults_detected", o.stats.faults.faults_detected)
        .field("retries", o.stats.faults.retries);
    outcomes.push_back(o);
  }

  table.print();

  std::int64_t unresolved = 0, mismatches = 0, injected = 0;
  for (const SeedOutcome& o : outcomes) {
    unresolved += o.unresolved;
    mismatches += o.mismatches;
    injected += o.stats.faults.faults_injected;
  }
  std::printf("\n%d seeds, %lld faults injected: %lld unresolved futures, "
              "%lld mismatched successes -> %s\n",
              seeds, static_cast<long long>(injected),
              static_cast<long long>(unresolved),
              static_cast<long long>(mismatches),
              unresolved + mismatches == 0 ? "contract holds"
                                           : "CONTRACT VIOLATION");

  if (!json_path.empty()) report.write(json_path);
  return unresolved + mismatches == 0 ? 0 : 1;
}
