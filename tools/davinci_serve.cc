// davinci_serve: replays a pooling request trace through a serving
// session and reports throughput and latency (docs/SERVING.md).
//
//   davinci_serve <trace-file> [flags]
//
// --help prints the declared flags with their defaults; docs/SERVING.md
// explains the replay, the console report, the live stats stream and
// what the --json total row gates.
//
// Exit codes: 0 success, 2 usage (an unknown or malformed flag, or a
// setting the session rejects), 3 trace error (unreadable or malformed,
// or a line whose tensors cannot be materialized), 4 any request failed
// (launch failure, expired deadline, or shed by the overload policy).
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/json.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "sim/fp16_lanes.h"
#include "sim/metrics_registry.h"
#include "sim/prof_report.h"
#include "sim/trace_export.h"

using namespace davinci;

namespace {

std::string geom_string(const serve::TraceEntry& e) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%lldx%lldx%lldx%lldx16",
                static_cast<long long>(e.n), static_cast<long long>(e.c1),
                static_cast<long long>(e.ih), static_cast<long long>(e.iw));
  return buf;
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
  serve::ClusterOptions cluster_opts;
  serve::SessionOptions opts;
  std::vector<std::string> trace_arg;
  std::string placement = "data", policy = "block", inject, json_path,
              metrics_path, chrome_trace_path, stats_out;
  bool serial = false;
  std::uint64_t seed = 1;
  ResilienceOptions res;
  std::int64_t default_deadline_us = 0, warmup = 0, stats_every_ms = 0;
  flags::Parser cli("davinci_serve", "<trace-file>");
  cli.flag("devices", &cluster_opts.devices, "devices behind the router")
      .flag("placement", &placement, "shard batch N or C1", {"data", "model"})
      .flag("queue", &opts.queue_depth, "admission-queue depth")
      .flag("max-batch", &opts.max_batch, "requests per launch, 1 = alone")
      .flag("no-double-buffer", &serial, "single-buffer schedule")
      .flag("policy", &policy, "overload policy", {"block", "reject", "shed"})
      .flag("deadline-us", &default_deadline_us, "default deadline, 0 = none")
      .flag("watchdog-us", &opts.watchdog_timeout_us, "watchdog, 0 = off")
      .flag("inject", &inject, "fault-plan spec every launch runs under")
      .flag("seed", &seed, "fault-plan seed")
      .flag("retries", &res.max_retries, "per-block retry budget")
      .flag("verify", &res.verify, "CRC-verify stores")
      .flag("in-flight", &opts.vm_in_flight, "VM launch window, 1 = serial")
      .flag("warmup", &warmup, "requests replayed once before measuring")
      .flag("chrome-trace", &chrome_trace_path, "write the Chrome trace here")
      .flag("stats-every-ms", &stats_every_ms, "live stats period, 0 = off")
      .flag("stats-out", &stats_out, "write the stats lines here, not stdout")
      .flag("json", &json_path, "write the per-line and total rows here")
      .flag("metrics", &metrics_path, "write the metrics JSON here")
      .positional(&trace_arg, 1, 1);
  if (cli.parse(argc, argv) != flags::Status::kOk) return cli.report();
  const std::string& trace_path = trace_arg[0];
  cluster_opts.placement = placement == "model" ? serve::Placement::kModel
                                                : serve::Placement::kData;
  opts.overload = policy == "reject" ? serve::OverloadPolicy::kRejectNew
                  : policy == "shed" ? serve::OverloadPolicy::kShedOldest
                                     : serve::OverloadPolicy::kBlock;
  opts.double_buffer = !serial;
  opts.vm_capture = !chrome_trace_path.empty();
  // The fault plan, the cluster and the session own their settings'
  // rules; a setting they reject is a usage error.
  std::optional<serve::Session> owned_session;
  try {
    if (!inject.empty() || res.verify) {
      res.plan = FaultPlan::parse(inject, seed);
      opts.resilience = res;
    }
    owned_session.emplace(serve::Cluster(cluster_opts), opts);
  } catch (const Error& e) {
    return cli.fail(e.what());
  }
  serve::Session& session = *owned_session;

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

  std::vector<LineRuns> lines(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) lines[i].entry = i;

  // One replay of requests [0, count) in paused admission windows of at
  // most queue_depth requests each, so submit never blocks on a paused
  // queue: the worker sees each window all at once, which makes
  // coalescing -- and therefore the launch count and cycle totals --
  // deterministic run to run. The CI host gate diffs cycles at zero
  // tolerance on top of this. Returns each request's future and trace
  // id, in submission order.
  struct Submitted {
    std::future<kernels::PoolResult> future;
    std::int64_t trace_id = -1;
  };
  auto replay = [&](std::size_t count) {
    std::vector<Submitted> sent;
    session.pause();
    for (std::size_t r = 0; r < count; ++r) {
      const serve::TraceEntry& e = entries[request_line[r]];
      serve::SubmitOptions sub;
      sub.deadline_us =
          e.deadline_us > 0 ? e.deadline_us : default_deadline_us;
      sub.prio = e.prio;
      sub.shard = e.shard;
      Submitted s;
      sub.trace_id = &s.trace_id;
      s.future = session.submit(e.op, requests[r].inputs(), sub);
      sent.push_back(std::move(s));
      if ((r + 1) % opts.queue_depth == 0) {
        session.resume();
        session.drain();
        session.pause();
      }
    }
    session.resume();
    session.drain();
    return sent;
  };

  // Warmup: replay the first --warmup requests once so the measured run
  // starts with a warm plan cache and arena, then discard every counter
  // (including the VM stream clock) so the measured cycles are those of
  // the measured replay alone. Warmup failures are ignored on purpose --
  // they would double-count against the measured run's exit code.
  if (warmup > 0) {
    try {
      for (Submitted& s : replay(std::min(
               requests.size(), static_cast<std::size_t>(warmup)))) {
        try {
          s.future.get();
        } catch (const Error&) {
        }
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "davinci_serve: warmup failed: %s\n", e.what());
      return 4;
    }
    session.reset_stats();
  }

  StatsStream stats_stream;
  if (stats_every_ms > 0) {
    stats_stream.start(&session, stats_every_ms, stats_out);
  }
  std::int64_t first_trace_id = -1, last_trace_id = -1;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    std::vector<Submitted> sent = replay(requests.size());
    first_trace_id = sent.front().trace_id;
    last_trace_id = sent.back().trace_id;
    for (std::size_t r = 0; r < sent.size(); ++r) {
      lines[request_line[r]].futures.push_back(std::move(sent[r].future));
    }
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
          registry.add(e.op.to_string() + " " + geom_string(e), r.run);
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
  // Host time depends on which fp16 lane implementation this CPU runs.
  std::printf("host: %.1f ms wall, %.0f requests/s, fp16 lanes %s; "
              "per-request phase sums alloc %.2f ms, plan %.2f ms, validate "
              "%.2f ms, execute %.2f ms; trace ids %lld..%lld\n",
              host_ms,
              host_ms > 0.0
                  ? 1000.0 * static_cast<double>(ok_requests) / host_ms
                  : 0.0,
              fp16_lanes::active_arith().name,
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
    // The gated "cycles" metric is the cluster makespan: the max of the
    // busiest device's cross-batch overlapped makespan and the busiest
    // link's busy time -- the quantity the serving path actually spends
    // on the cluster (the single VM makespan at --devices=1); the plain
    // per-launch sum stays visible as the non-gated "cycles_sum".
    const serve::SessionStats s = session.stats();
    j += "{\"name\":\"total\",\"requests\":" + std::to_string(s.completed) +
         ",\"cycles\":" + std::to_string(s.cluster_makespan) +
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
