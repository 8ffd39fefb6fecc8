// davinci_serve: replays a pooling request trace through a serving
// session and reports throughput and latency (docs/SERVING.md).
//
//   davinci_serve <trace-file> [options]
//
// Options:
//   --devices=N          simulated devices behind the placement router
//                        (default 1; see docs/CLUSTER.md)
//   --placement=P        sharding axis: data (batch N) | model (C1)
//   --queue=N            admission-queue depth           (default 64)
//   --max-batch=N        requests per coalesced launch   (default 16;
//                        1 = every request launches alone)
//   --ub-waves=N         launch block cap, in waves      (default 4)
//   --plan-cache=N       plan-cache capacity             (default 64)
//   --no-double-buffer   single-buffered device schedule
//   --policy=P           overload policy: block | reject | shed
//   --deadline-us=N      default completion budget for trace lines that
//                        carry no deadline_us= field (0 = none)
//   --watchdog-us=N      hung-launch watchdog budget (0 = off)
//   --inject=SPEC        fault-plan spec (sim/fault.h grammar); every
//                        launch runs under it (Device::set_resilience)
//   --seed=N             fault-plan seed                 (default 1)
//   --retries=N          per-block retry budget          (default 3)
//   --verify             CRC-verify stores (catches silent corruption)
//   --no-arena           disable the tensor arena (allocate-per-request
//                        baseline; results must be bit-identical)
//   --no-vm              disable the instruction-stream VM (per-batch
//                        serial device timing; outputs are bit-identical
//                        either way, only the cycle model changes)
//   --in-flight=N        VM in-flight launch window        (default 2)
//   --warmup=N           replay the first N requests once before the
//                        measured run (warm plan cache / arena), then
//                        reset the statistics and the wall clock
//   --chrome-trace=path  write the unified host+device Chrome trace
//                        (enables stream capture): the VM cross-batch
//                        launch tracks plus one "serve requests" row per
//                        traced request (queued / batching / execute) on
//                        the same cycle timeline
//   --stats-every-ms=N   live telemetry: while the measured replay runs,
//                        emit one JSON line every N ms -- the session's
//                        "serve" object (Session::serve_json) with the
//                        sample time "t_ms" and the interval completion
//                        rate "qps" in front; a final line always
//                        flushes at the end of the replay
//   --stats-out=path     write the telemetry lines to a file (default
//                        stdout)
//   --json=<path>        machine-readable report ({"bench","rows"}); the
//                        per-trace-line rows carry non-gated fields, the
//                        final "total" row carries the gated cycles sum
//                        so `davinci_prof --diff seq.json batched.json`
//                        (seq.json from --max-batch=1) gates
//                        batched-vs-sequential regressions; the
//                        total row also reports failed/expired/shed plus
//                        host_ms and the host-phase sums (host_alloc_ms /
//                        host_plan_ms / host_validate_ms /
//                        host_execute_ms), which only gate a diff under
//                        davinci_prof --include-host
//   --metrics=<path>     schema-v8 davinci.metrics JSON: one entry per
//                        trace line plus the session's "serve" object
//                        (the same object the console summary renders)
//
// The console prints one row per trace line, then the "serve" object
// through davinci_prof's renderer (render_object), then one "host" line
// with what only this tool measures: wall time, requests/s, the
// per-request host-phase sums and the measured replay's trace-id range.
//
// Exit codes: 0 success, 2 usage, 3 trace error (unreadable or malformed,
// or a line whose tensors cannot be materialized), 4 any request failed
// (launch failure, expired deadline, or shed by the overload policy).
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "sim/metrics_registry.h"
#include "sim/prof_report.h"
#include "sim/trace_export.h"
#include "tensor/arena.h"

using namespace davinci;

namespace {

std::string arg_value(int argc, char** argv, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, n) == 0) return argv[i] + n;
  }
  return "";
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::int64_t int_arg(int argc, char** argv, const char* prefix,
                     std::int64_t fallback) {
  const std::string v = arg_value(argc, argv, prefix);
  return v.empty() ? fallback : std::stoll(v);
}

std::string geom_string(const serve::TraceEntry& e) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%lldx%lldx%lldx%lldx16",
                static_cast<long long>(e.n), static_cast<long long>(e.c1),
                static_cast<long long>(e.ih), static_cast<long long>(e.iw));
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: davinci_serve <trace-file> "
               "[--devices=N] [--placement=data|model] "
               "[--queue=N] [--max-batch=N] [--ub-waves=N] [--plan-cache=N] "
               "[--no-double-buffer] [--policy=block|reject|shed] "
               "[--deadline-us=N] [--watchdog-us=N] [--inject=SPEC] "
               "[--seed=N] [--retries=N] [--verify] [--no-arena] "
               "[--no-vm] [--in-flight=N] [--warmup=N] "
               "[--chrome-trace=path] [--stats-every-ms=N] "
               "[--stats-out=path] [--json=path] [--metrics=path]\n");
  return 2;
}

// The live telemetry stream (--stats-every-ms): a sampler thread takes
// session.serve_json() every interval and appends it as one JSON line
// with "t_ms" (since start) and "qps" in front. qps is the *interval*
// completion rate (delta completed / delta time); everything else is the
// cumulative value at sample time, so per-device rates are deltas of
// cluster.per_device between lines. finish() always emits one final
// line, so even a replay shorter than the interval yields a non-empty
// stream.
class StatsStream {
 public:
  void start(serve::Session* session, std::int64_t every_ms,
             const std::string& out_path) {
    session_ = session;
    if (!out_path.empty()) {
      out_ = std::fopen(out_path.c_str(), "wb");
      DV_CHECK(out_ != nullptr) << "cannot open " << out_path;
      owns_file_ = true;
    } else {
      out_ = stdout;
    }
    t0_ = std::chrono::steady_clock::now();
    thread_ = std::thread([this, every_ms] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        if (cv_.wait_for(lock, std::chrono::milliseconds(every_ms),
                         [this] { return stop_; })) {
          return;
        }
        lock.unlock();
        emit_line();
        lock.lock();
      }
    });
  }

  void finish() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    emit_line();
    if (owns_file_) std::fclose(out_);
    out_ = nullptr;
  }

 private:
  void emit_line() {
    const std::string serve = session_->serve_json();
    const std::int64_t completed =
        json::parse(serve).at("completed").as_int();
    const double t_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0_)
                            .count();
    const double dt_s = (t_ms - last_t_ms_) / 1000.0;
    const double qps =
        dt_s > 0.0 ? static_cast<double>(completed - last_completed_) / dt_s
                   : 0.0;
    std::string j = "{\"t_ms\":";
    j += json::number(t_ms);
    j += ",\"qps\":";
    j += json::number(qps);
    j += ",";
    j.append(serve, 1, std::string::npos);  // serve without its '{'
    j += "\n";
    std::fwrite(j.data(), 1, j.size(), out_);
    std::fflush(out_);
    last_completed_ = completed;
    last_t_ms_ = t_ms;
  }

  serve::Session* session_ = nullptr;
  std::FILE* out_ = nullptr;
  bool owns_file_ = false;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::chrono::steady_clock::time_point t0_;
  std::int64_t last_completed_ = 0;
  double last_t_ms_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') return usage();
  const std::string trace_path = argv[1];
  if (has_flag(argc, argv, "--no-arena")) {
    TensorArena::global().set_enabled(false);
  }

  serve::ClusterOptions cluster_opts;
  cluster_opts.devices =
      static_cast<int>(int_arg(argc, argv, "--devices=", 1));
  if (cluster_opts.devices < 1) {
    std::fprintf(stderr, "davinci_serve: --devices must be >= 1\n");
    return usage();
  }
  const std::string placement = arg_value(argc, argv, "--placement=");
  if (placement == "model") {
    cluster_opts.placement = serve::Placement::kModel;
  } else if (!placement.empty() && placement != "data") {
    std::fprintf(stderr, "davinci_serve: unknown --placement '%s'\n",
                 placement.c_str());
    return usage();
  }

  serve::SessionOptions opts;
  opts.queue_depth = static_cast<std::size_t>(
      int_arg(argc, argv, "--queue=", 64));
  opts.max_batch = static_cast<std::size_t>(
      int_arg(argc, argv, "--max-batch=", 16));
  opts.ub_waves = static_cast<int>(int_arg(argc, argv, "--ub-waves=", 4));
  opts.plan_cache_capacity = static_cast<std::size_t>(
      int_arg(argc, argv, "--plan-cache=", 64));
  opts.double_buffer = !has_flag(argc, argv, "--no-double-buffer");
  opts.watchdog_timeout_us = int_arg(argc, argv, "--watchdog-us=", 0);
  const std::string policy = arg_value(argc, argv, "--policy=");
  if (policy == "reject") {
    opts.overload = serve::OverloadPolicy::kRejectNew;
  } else if (policy == "shed") {
    opts.overload = serve::OverloadPolicy::kShedOldest;
  } else if (!policy.empty() && policy != "block") {
    std::fprintf(stderr, "davinci_serve: unknown --policy '%s'\n",
                 policy.c_str());
    return usage();
  }
  const std::string inject = arg_value(argc, argv, "--inject=");
  if (!inject.empty() || has_flag(argc, argv, "--verify")) {
    ResilienceOptions res;
    try {
      res.plan = FaultPlan::parse(
          inject, static_cast<std::uint64_t>(
                      int_arg(argc, argv, "--seed=", 1)));
    } catch (const Error& e) {
      std::fprintf(stderr, "davinci_serve: bad --inject: %s\n", e.what());
      return usage();
    }
    res.max_retries = static_cast<int>(int_arg(argc, argv, "--retries=", 3));
    res.verify = has_flag(argc, argv, "--verify");
    opts.resilience = res;
  }
  const std::int64_t default_deadline_us =
      int_arg(argc, argv, "--deadline-us=", 0);
  const std::string json_path = arg_value(argc, argv, "--json=");
  const std::string metrics_path = arg_value(argc, argv, "--metrics=");
  const std::string chrome_trace_path =
      arg_value(argc, argv, "--chrome-trace=");
  const std::int64_t warmup = int_arg(argc, argv, "--warmup=", 0);
  const std::int64_t stats_every_ms =
      int_arg(argc, argv, "--stats-every-ms=", 0);
  const std::string stats_out = arg_value(argc, argv, "--stats-out=");
  opts.vm = !has_flag(argc, argv, "--no-vm");
  opts.vm_in_flight = static_cast<int>(int_arg(argc, argv, "--in-flight=", 2));
  opts.vm_capture = !chrome_trace_path.empty();

  std::vector<serve::TraceEntry> entries;
  try {
    entries = serve::load_trace(trace_path);
  } catch (const Error& e) {
    std::fprintf(stderr, "davinci_serve: %s\n", e.what());
    return 3;
  }
  if (entries.empty()) {
    std::fprintf(stderr, "davinci_serve: trace '%s' contains no requests\n",
                 trace_path.c_str());
    return 3;
  }

  // Materialize every request up front so the replay loop measures the
  // serving path, not input generation. A line whose tensors cannot be
  // built (a shape too large to represent, or to allocate) is a trace
  // error.
  struct LineRuns {
    std::size_t entry = 0;
    std::vector<std::future<kernels::PoolResult>> futures;
  };
  std::vector<serve::MaterializedRequest> requests;
  std::vector<std::size_t> request_line;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    try {
      for (int r = 0; r < entries[i].repeat; ++r) {
        requests.push_back(
            serve::materialize(entries[i], i * 1000 + std::uint64_t(r)));
        request_line.push_back(i);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "davinci_serve: trace line '%s': cannot materialize its "
                   "tensors: %s\n",
                   serve::to_line(entries[i]).c_str(), e.what());
      return 3;
    }
  }

  serve::Session session(serve::Cluster(cluster_opts), opts);
  std::vector<LineRuns> lines(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) lines[i].entry = i;

  // Warmup: replay the first --warmup requests once so the measured run
  // starts with a warm plan cache and arena, then discard every counter
  // (including the VM stream clock) so the measured cycles are those of
  // the measured replay alone. Warmup failures are ignored on purpose --
  // they would double-count against the measured run's exit code.
  if (warmup > 0) {
    try {
      std::size_t window = 0;
      std::vector<std::future<kernels::PoolResult>> warm;
      session.pause();
      for (std::size_t r = 0;
           r < requests.size() && r < static_cast<std::size_t>(warmup); ++r) {
        const serve::TraceEntry& e = entries[request_line[r]];
        serve::SubmitOptions sub;
        sub.deadline_us =
            e.deadline_us > 0 ? e.deadline_us : default_deadline_us;
        sub.prio = e.prio;
        sub.shard = e.shard;
        warm.push_back(session.submit(e.op, requests[r].inputs(), sub));
        if (++window == static_cast<std::size_t>(opts.queue_depth)) {
          session.resume();
          session.drain();
          session.pause();
          window = 0;
        }
      }
      session.resume();
      session.drain();
      for (auto& f : warm) {
        try {
          f.get();
        } catch (const Error&) {
        }
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "davinci_serve: warmup failed: %s\n", e.what());
      return 4;
    }
    session.reset_stats();
  }

  // Replay in paused admission windows (at most queue_depth requests
  // each, so submit never blocks on a paused queue): the worker sees
  // each window all at once, which makes coalescing -- and therefore
  // the launch count and cycle totals -- deterministic run to run. The
  // CI host gate diffs cycles at zero tolerance on top of this.
  StatsStream stats_stream;
  if (stats_every_ms > 0) {
    stats_stream.start(&session, stats_every_ms, stats_out);
  }
  std::int64_t first_trace_id = -1, last_trace_id = -1;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    std::size_t window = 0;
    session.pause();
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const serve::TraceEntry& e = entries[request_line[r]];
      serve::SubmitOptions sub;
      sub.deadline_us =
          e.deadline_us > 0 ? e.deadline_us : default_deadline_us;
      sub.prio = e.prio;
      sub.shard = e.shard;
      std::int64_t trace_id = -1;
      sub.trace_id = &trace_id;
      lines[request_line[r]].futures.push_back(
          session.submit(e.op, requests[r].inputs(), sub));
      if (first_trace_id < 0) first_trace_id = trace_id;
      last_trace_id = trace_id;
      if (++window == static_cast<std::size_t>(opts.queue_depth)) {
        session.resume();
        session.drain();
        session.pause();
        window = 0;
      }
    }
    session.resume();
    session.drain();
  } catch (const Error& e) {
    std::fprintf(stderr, "davinci_serve: submit failed: %s\n", e.what());
    return 4;
  }
  if (stats_every_ms > 0) stats_stream.finish();

  MetricsRegistry registry;
  std::printf("davinci_serve: %zu requests from %s (max batch %zu)\n",
              requests.size(), trace_path.c_str(), opts.max_batch);
  std::printf("%-44s %-14s %9s %14s\n", "op", "geometry (NC1HWC0)",
              "requests", "launch-cycles");
  std::int64_t failed_requests = 0, expired_requests = 0, shed_requests = 0;
  std::int64_t host_alloc_ns = 0, host_plan_ns = 0, host_validate_ns = 0,
               host_execute_ns = 0;
  std::vector<std::int64_t> line_cycles(entries.size(), 0);
  for (LineRuns& line : lines) {
    const serve::TraceEntry& e = entries[line.entry];
    std::int64_t rep_cycles = 0;
    bool added = false;
    for (std::size_t f = 0; f < line.futures.size(); ++f) {
      try {
        kernels::PoolResult r = line.futures[f].get();
        host_alloc_ns += r.run.host_alloc_ns;
        host_plan_ns += r.run.host_plan_ns;
        host_validate_ns += r.run.host_validate_ns;
        host_execute_ns += r.run.host_execute_ns;
        if (!added) {
          rep_cycles = r.cycles();
          registry.add(e.op.to_string() + " " + geom_string(e), r.run,
                       session.cluster().device(0).arch());
          added = true;
        }
      } catch (const serve::DeadlineExceeded& err) {
        std::fprintf(stderr, "request expired (%s): %s\n",
                     e.op.to_string().c_str(), err.what());
        expired_requests += 1;
      } catch (const serve::Overloaded& err) {
        std::fprintf(stderr, "request shed (%s): %s\n",
                     e.op.to_string().c_str(), err.what());
        shed_requests += 1;
      } catch (const Error& err) {
        std::fprintf(stderr, "request failed (%s): %s\n",
                     e.op.to_string().c_str(), err.what());
        failed_requests += 1;
      }
    }
    line_cycles[line.entry] = rep_cycles;
    std::printf("%-44s %-14s %9zu %14lld\n", e.op.to_string().c_str(),
                geom_string(e).c_str(), line.futures.size(),
                static_cast<long long>(rep_cycles));
  }
  const double host_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  const std::string serve = session.serve_json();
  std::printf("\n%s", render_object("serve", json::parse(serve)).c_str());
  const std::int64_t ok_requests =
      static_cast<std::int64_t>(requests.size()) - failed_requests -
      expired_requests - shed_requests;
  std::printf("host: %.1f ms wall, %.0f requests/s; per-request phase sums "
              "alloc %.2f ms, plan %.2f ms, validate %.2f ms, execute %.2f "
              "ms; trace ids %lld..%lld\n",
              host_ms,
              host_ms > 0.0
                  ? 1000.0 * static_cast<double>(ok_requests) / host_ms
                  : 0.0,
              static_cast<double>(host_alloc_ns) / 1e6,
              static_cast<double>(host_plan_ns) / 1e6,
              static_cast<double>(host_validate_ns) / 1e6,
              static_cast<double>(host_execute_ns) / 1e6,
              static_cast<long long>(first_trace_id),
              static_cast<long long>(last_trace_id));

  if (!json_path.empty()) {
    // Hand-rolled report in the bench {"bench","rows"} shape: per-line
    // rows use non-gated keys (a coalesced launch is legitimately longer
    // than a single-request one); only the "total" row carries the gated
    // cycle sum.
    std::string j = "{\"bench\":\"davinci_serve\",\"rows\":[\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const serve::TraceEntry& e = entries[i];
      j += "{\"name\":\"" + e.op.to_string() + " " + geom_string(e) +
           "\",\"requests\":" + std::to_string(lines[i].futures.size()) +
           ",\"launch_cycles\":" + std::to_string(line_cycles[i]) + "},\n";
    }
    // json::number, not snprintf("%.4f"): the latter consults LC_NUMERIC
    // and writes ',' decimals under comma-decimal locales -- invalid JSON.
    // With the VM on, the gated "cycles" metric IS the cluster makespan:
    // the max of the busiest device's cross-batch overlapped makespan
    // and the busiest link's busy time -- the quantity the serving path
    // actually spends on the cluster (identical to the single VM
    // makespan at --devices=1, so the 1-device baselines are unchanged);
    // the plain per-launch sum stays visible as the non-gated
    // "cycles_sum".
    const serve::SessionStats s = session.stats();
    const std::int64_t gated_cycles =
        opts.vm ? s.cluster_makespan : s.device_cycles_total;
    j += "{\"name\":\"total\",\"requests\":" + std::to_string(s.completed) +
         ",\"cycles\":" + std::to_string(gated_cycles) +
         ",\"cycles_sum\":" + std::to_string(s.device_cycles_total) +
         ",\"devices\":" + std::to_string(s.devices) +
         ",\"placement\":\"" + serve::to_string(s.placement) + "\"" +
         ",\"sharded_launches\":" +
         std::to_string(s.cluster.sharded_launches) +
         ",\"redistribution_bytes\":" +
         std::to_string(s.cluster.redistribution_bytes) +
         ",\"redistribution_cycles\":" +
         std::to_string(s.cluster.redistribution_cycles) +
         ",\"link_busy_cycles\":" +
         std::to_string(s.cluster.link_busy_cycles) +
         ",\"vm\":" + (opts.vm ? std::string("true") : std::string("false")) +
         ",\"in_flight\":" + std::to_string(s.vm.in_flight) +
         ",\"overlap_cycles\":" + std::to_string(s.vm.overlap_cycles) +
         ",\"window_stalls\":" + std::to_string(s.vm.window_stalls) +
         ",\"hazard_stalls\":" + std::to_string(s.vm.hazard_stalls) +
         ",\"launches\":" + std::to_string(s.launches) +
         ",\"failed\":" + std::to_string(s.failed) +
         ",\"expired\":" + std::to_string(s.expired) +
         ",\"shed\":" + std::to_string(s.shed + s.rejected) +
         ",\"avg_batch\":" + json::number(s.avg_batch) +
         ",\"plan_cache_hit_rate\":" + json::number(s.plan_cache.hit_rate()) +
         ",\"host_ms\":" + json::number(host_ms) +
         ",\"host_alloc_ms\":" +
         json::number(static_cast<double>(host_alloc_ns) / 1e6) +
         ",\"host_plan_ms\":" +
         json::number(static_cast<double>(host_plan_ns) / 1e6) +
         ",\"host_validate_ms\":" +
         json::number(static_cast<double>(host_validate_ns) / 1e6) +
         ",\"host_execute_ms\":" +
         json::number(static_cast<double>(host_execute_ns) / 1e6) +
         "}\n]}\n";
    std::FILE* f = std::fopen(json_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 4;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("json: wrote %s\n", json_path.c_str());
  }
  if (!metrics_path.empty()) {
    registry.set_serve(serve);
    registry.write(metrics_path);
  }
  if (!chrome_trace_path.empty()) {
    // One file, two layers: the VM's per-launch device tracks plus one
    // "serve requests" row per traced request on the same timeline.
    session.write_unified_chrome_trace(chrome_trace_path);
    std::printf("chrome-trace: wrote %s (%zu placed launches)\n",
                chrome_trace_path.c_str(),
                session.vm_stream(0).placements().size());
  }
  return (failed_requests + expired_requests + shed_requests) > 0 ? 4 : 0;
}
