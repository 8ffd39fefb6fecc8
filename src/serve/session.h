// The serving session: a device cluster serving concurrent pooling
// requests (docs/SERVING.md, docs/CLUSTER.md).
//
// A Session owns a serve::Cluster (one or more simulated devices behind
// a placement router) and a worker thread. Callers submit PoolOp
// descriptors plus input tensors and get a future back; the worker
// drains the admission queue, groups same-geometry requests into
// launches (serve/batcher.h), resolves each launch's tiling plan through
// an LRU cache (serve/plan_cache.h), and hands the launch's members to
// the cluster -- which shards their stacked (N, C1) grid over N (data
// placement) or C1 (model placement) with explicitly-costed
// redistribution and returns one result per member -- then completes
// the futures.
//
//   serve::Session session(serve::Cluster(), opts);   // one device
//   auto f = session.submit(op, inputs);   // blocks when the queue is full
//   PoolResult r = f.get();                // bit-identical to run_pool
//
// Guarantees:
//  * every future resolves -- with a value, or with an exception from
//    the Error hierarchy (DeadlineExceeded, Overloaded, Cancelled,
//    RetryExhausted, or the kernel error). This holds under injected
//    faults, overload, and destruction with queued or in-flight work;
//  * results are bit-identical to running each request alone through
//    run_pool (each device block computes only its own (N, C1) slice);
//  * the admission queue is bounded (SessionOptions::queue_depth) and
//    governed by SessionOptions::overload: block (submit() waits --
//    backpressure), reject-new (the new request's future fails with
//    Overloaded), or shed-oldest (the oldest lowest-priority queued
//    request is failed to make room). try_submit() always just refuses;
//  * a request with a deadline that expires while queued fails with
//    DeadlineExceeded *without* a device launch and never delays or
//    fails its batchmates;
//  * under a resilience policy (SessionOptions::resilience) batches run
//    with retry and quarantine (Device::set_resilience); a launch that
//    still fails after retry/quarantine is bisected so a poisoned request
//    fails alone instead of failing its batchmates, and observed core
//    quarantine shrinks the cores x kUbWaves batch cap;
//  * input tensors are borrowed: they must stay alive and unmodified
//    until the request's future resolves.
//
// Destruction is a graceful shutdown: still-queued requests are
// cancelled (their futures fail with Cancelled), in-flight work
// completes, then the worker and watchdog threads join. Use drain() /
// drain(timeout) first if queued work must finish.
//
// Thread safety: submit/try_submit/drain/stats may be called from any
// number of threads; the device itself is driven only by the worker.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/percentile.h"
#include "kernels/pooling.h"
#include "serve/batcher.h"
#include "serve/cluster.h"
#include "serve/plan_cache.h"
#include "serve/request_trace.h"
#include "sim/device.h"
#include "sim/fault.h"
#include "sim/vm/stream.h"

namespace davinci::serve {

// A request's deadline expired before its launch. The device never ran
// the request (in-queue expiry is checked before coalescing).
class DeadlineExceeded : public Error {
 public:
  using Error::Error;
};

// The session refused or shed the request under its overload policy.
class Overloaded : public Error {
 public:
  using Error::Error;
};

// The session was destroyed with the request still queued.
class Cancelled : public Error {
 public:
  using Error::Error;
};

// What submit() does when the admission queue is full.
enum class OverloadPolicy : std::uint8_t {
  kBlock,       // wait for space (backpressure); the pre-deadline default
  kRejectNew,   // fail the new request's future with Overloaded
  kShedOldest,  // fail the oldest lowest-priority queued request instead
};

const char* to_string(OverloadPolicy policy);

// Launch block cap, in waves: a launch holds at most healthy_cores x
// kUbWaves (N, C1) blocks. Each resident block pins its plan's ub_slots
// UB tile slots, so kUbWaves bounds how many waves of blocks a launch may
// queue per core before it is split. healthy_cores starts at the core
// count the launch runs on (the whole cluster; one device for a pinned
// launch) and shrinks as the resilient launch path observes quarantined
// cores.
inline constexpr int kUbWaves = 4;
// LRU plan-cache entries (serve/plan_cache.h).
inline constexpr std::size_t kPlanCacheCapacity = 64;
// Request lifecycle tracing (serve/request_trace.h): every request gets
// a trace id and its transitions land in a bounded event ring of this
// capacity; when the ring fills, the oldest events are overwritten and
// counted (never unbounded growth).
inline constexpr std::size_t kRequestTraceCapacity = 16384;
// Exact-sample retention cap for latency / queue-wait cross-checks: the
// first this-many samples are kept verbatim next to the bounded
// histograms, so tests and the CI gate can compare histogram percentiles
// against exact ones. Past the cap only the histograms keep counting
// (constant memory for million-request replays).
inline constexpr std::size_t kLatencySampleCap = 8192;

struct SessionOptions {
  // Admission-queue bound: once this many requests are waiting the
  // overload policy applies to submit() and try_submit() refuses
  // (in-flight work does not count).
  std::size_t queue_depth = 64;
  OverloadPolicy overload = OverloadPolicy::kBlock;
  // Launch cap: at most this many requests per coalesced launch (1 =
  // every request launches alone, in submission order: the sequential
  // baseline in bench_serve), besides the kUbWaves block cap.
  std::size_t max_batch = 16;
  // Device double-buffer policy (feeds the plan-cache key).
  bool double_buffer = true;
  // When set, every launch runs under this device resilience policy
  // (fault plan, retry budget, store-path verification).
  // Launches that still fail are bisected; see the class comment.
  std::optional<ResilienceOptions> resilience;
  // Hung-launch watchdog: a launch exceeding this wall-clock budget is
  // counted in stats().watchdog_alarms (once per launch). The simulator
  // cannot preempt a launch, so the watchdog observes and reports -- the
  // signal an operator (or a test) alarms on. 0 disables the watchdog.
  std::int64_t watchdog_timeout_us = 0;
  // Async instruction-stream VM (sim/vm/, docs/ASYNC_VM.md): every
  // launch's captured pipe timeline is enqueued on its device's
  // VmStream, which pipelines launches across batch boundaries with at
  // most this many launches in flight; stats().vm.makespan then models
  // the whole trace's device time. 1 places launches strictly back to
  // back (vm.makespan == device_cycles_total). Outputs, launch order and
  // device_cycles_total do not depend on it -- the VM only re-times.
  int vm_in_flight = 2;
  // Retain per-launch placed intervals for the device tracks of the
  // unified Chrome trace (write_unified_chrome_trace); bounded, off by
  // default.
  bool vm_capture = false;
};

// Per-request submission options.
struct SubmitOptions {
  // Completion budget in microseconds from submission; 0 = no deadline.
  // A request still queued when the budget lapses fails with
  // DeadlineExceeded and never reaches the device.
  std::int64_t deadline_us = 0;
  // Shed priority: under OverloadPolicy::kShedOldest the oldest request
  // of the *lowest* priority present is shed first.
  int prio = 0;
  // When non-null, receives the request's session-assigned trace id
  // (monotonic, never reused) before submit/try_submit returns -- the
  // key for correlating the future with ring events and the unified
  // Chrome trace's request rows.
  std::int64_t* trace_id = nullptr;
  // Placement hint: -1 (the default) lets the cluster router shard the
  // launch over the placement axis; 0 <= shard < devices pins the whole
  // launch to that device (requests sharing a take coalesce only with
  // same-hint requests). A hint >= the device count fails the future
  // with Error before any launch.
  int shard = -1;
};

// Host-side latency distribution in microseconds (the shared summary
// shape from common/percentile.h -- one percentile implementation for
// every reporting surface).
using LatencySummary = stats::Summary;

struct SessionStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;     // validation / launch failures
  std::int64_t expired = 0;    // deadline lapsed while queued
  std::int64_t shed = 0;       // dropped by kShedOldest
  std::int64_t rejected = 0;   // refused by kRejectNew
  std::int64_t cancelled = 0;  // still queued at destruction
  std::int64_t launches = 0;             // device launches issued
  std::int64_t batches = 0;              // launches with >= 2 members
  std::int64_t coalesced_requests = 0;   // requests sharing a launch
  std::size_t max_batch = 0;             // largest launch, in requests
  double avg_batch = 0.0;                // requests per launch
  std::int64_t peak_queue_depth = 0;
  std::int64_t backpressure_waits = 0;   // submit() calls that blocked
  std::int64_t device_cycles_total = 0;  // sum of per-launch makespans
  // Cross-launch VM schedule. On one device, vm.makespan is the
  // overlapped device time of everything served so far, vm.serial_sum
  // equals device_cycles_total, and the per-pipe streams carry
  // busy/wait/flag/idle with busy+wait+flag+idle == makespan * tracks
  // exactly (docs/ASYNC_VM.md).
  // On a multi-device cluster the session runs one stream per device
  // and this aggregates them: makespan is the max over devices, sums
  // are summed, and the per-device bucket invariant holds per stream
  // (not for the aggregate, whose makespans differ).
  vm::VmStream::Stats vm;
  // Multi-device cluster surface (schema v7, docs/CLUSTER.md). For a
  // one-device session: devices == 1, cluster counters show one device
  // and no links, and cluster_makespan == vm.makespan.
  int devices = 1;
  Placement placement = Placement::kData;
  Cluster::Stats cluster;
  std::vector<std::int64_t> vm_makespan_per_device;
  // The cluster roofline: max(busiest device's VM makespan, busiest
  // link's cumulative busy cycles) -- the QPS denominator under
  // sharding. Equals vm.makespan on one device.
  std::int64_t cluster_makespan = 0;
  // Robustness counters (resilient launch path + watchdog).
  std::int64_t degraded_launches = 0;   // completed with faults absorbed
  std::int64_t bisections = 0;          // failed launches split in two
  std::int64_t poisoned_requests = 0;   // failed alone after bisection
  std::int64_t launch_failures = 0;     // launches that threw
  std::int64_t watchdog_alarms = 0;     // launches past the watchdog budget
  int quarantined_cores = 0;            // max cores lost in one launch
  FaultStats faults;                    // summed over completed launches
  // Latency distributions come from the bounded log-linear histograms
  // (common/histogram.h): count / mean / max are exact, percentiles are
  // bucket-quantized within ~3.1%. The *_exact twins summarize the
  // first kLatencySampleCap samples verbatim -- when their count
  // matches, the histogram percentiles can be cross-checked against the
  // exact ones (the CI 5%-tolerance gate).
  LatencySummary latency;     // submit -> future completed
  LatencySummary queue_wait;  // submit -> dequeued by the worker
  LatencySummary latency_exact;
  LatencySummary queue_wait_exact;
  std::int64_t queue_depth = 0;  // requests waiting right now
  // The request lifecycle ring's counters (capacity / recorded /
  // dropped / per-kind totals).
  RequestTraceRing::Stats request_trace;
  PlanCache::Stats plan_cache;
  std::size_t plan_cache_size = 0;
  std::size_t plan_cache_capacity = 0;
};

class Session {
 public:
  // The session API: hand the session its device cluster. A
  // default-constructed Cluster is one Ascend-910 device, so the
  // single-device session reads
  //
  //   serve::Session session(serve::Cluster(), opts);
  //
  // and a sharded one builds ClusterOptions first (devices, placement).
  // The session applies its own double-buffer/resilience/VM options to
  // every device; per-device state installed on the cluster beforehand
  // (e.g. fault plans on one device) is preserved unless the
  // corresponding SessionOptions field overrides it.
  explicit Session(Cluster cluster, SessionOptions opts = {});

  // Graceful shutdown: cancels still-queued requests (futures fail with
  // Cancelled), completes in-flight work, joins the threads.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Enqueues one request. When the queue is full the overload policy
  // decides: kBlock waits, kRejectNew fails the returned future with
  // Overloaded, kShedOldest drops a queued request to make room. The
  // tensors behind `in` are borrowed until the future resolves. Kernel
  // errors (invalid descriptor, shape out of schedule scope) surface
  // through the future.
  std::future<kernels::PoolResult> submit(kernels::PoolOp op,
                                          kernels::PoolInputs in,
                                          SubmitOptions sub = {});

  // Non-blocking submit: returns false (and leaves `out` untouched)
  // when the queue is full, whatever the overload policy.
  bool try_submit(kernels::PoolOp op, kernels::PoolInputs in,
                  std::future<kernels::PoolResult>* out,
                  SubmitOptions sub = {});

  // Blocks until everything dequeued so far has completed and the queue
  // is empty (or the session is paused -- a paused queue is left as is).
  void drain();
  // Bounded drain: returns false if the session was not idle within
  // `timeout` (queued or in-flight work remains -- e.g. a hung launch).
  bool drain(std::chrono::microseconds timeout);

  // Batching-window control: while paused the worker dequeues nothing,
  // so requests accumulate (deterministic coalescing and backpressure in
  // tests). resume() releases the accumulated queue at once. Deadlines
  // keep ticking while paused.
  void pause();
  void resume();

  // The device cluster behind the session; device 0 is the ingress
  // device, where requests arrive and unsharded launches run.
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  const SessionOptions& options() const { return opts_; }
  // Device `device`'s instruction-stream VM (valid for the session's
  // lifetime). The unified Chrome trace shows the ingress device's
  // stream, vm_stream(0).
  const vm::VmStream& vm_stream(int device) const {
    return *vm_streams_.at(static_cast<std::size_t>(device));
  }

  SessionStats stats() const;
  // Forgets everything measured so far -- counters, latency histograms,
  // plan-cache hit/miss stats, the request-trace ring and the VM stream
  // timeline -- while keeping cached plans and the warmed tensor arena.
  // The warmup path (davinci_serve --warmup) replays a prefix, drains,
  // then resets so cold-start costs never skew the timed replay. Call
  // only while idle (after drain()); resetting mid-launch would tear
  // the accounting.
  void reset_stats();
  // The schema-v9 "serve" JSON object -- the one serializer of
  // SessionStats. MetricsRegistry::set_serve embeds it, davinci_prof and
  // the davinci_serve console render it (render_object), and each
  // davinci_serve --stats-every-ms line is this object.
  std::string serve_json() const;

  // The request lifecycle ring (serve/request_trace.h).
  const RequestTraceRing& request_trace() const { return req_trace_; }
  // Ring snapshot, oldest first.
  std::vector<ReqEvent> request_events() const {
    return req_trace_.snapshot();
  }
  // The unified host+device Chrome trace: the VM stream's per-launch
  // device tracks plus one row per traced request showing queued /
  // batching / execute phases on the same cycle timeline
  // (docs/OBSERVABILITY.md). Device tracks require
  // SessionOptions::vm_capture; without it the trace is host-only.
  std::string unified_chrome_trace() const;
  void write_unified_chrome_trace(const std::string& path) const;

 private:
  struct Pending {
    kernels::PoolOp op;
    kernels::PoolInputs in;
    std::promise<kernels::PoolResult> promise;
    std::chrono::steady_clock::time_point submitted;
    // Absolute expiry (submitted + deadline_us); nullopt = no deadline.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    int prio = 0;
    int shard = -1;       // placement hint (SubmitOptions::shard)
    std::int64_t id = 0;  // session-assigned trace id
  };

  // The request submit() and try_submit() queue: everything but its
  // trace id, which each assigns under its own rule (assign_id_locked).
  static Pending make_pending(kernels::PoolOp op, kernels::PoolInputs in,
                              const SubmitOptions& sub);
  // Gives `p` the next trace id and hands it back through sub.trace_id.
  void assign_id_locked(Pending& p, const SubmitOptions& sub);
  void worker_loop();
  void watchdog_loop();
  void process(std::vector<Pending> taken);
  // Launches `members` (indices into `taken`) as one batch with
  // placement hint `shard`, bisecting on resilient-launch failure.
  // Expired members are failed before the launch.
  void execute_members(std::vector<Pending>& taken,
                       std::vector<std::size_t> members, int shard);
  // One cluster launch for `members`; completes their futures on
  // success, throws on failure.
  void launch_members(std::vector<Pending>& taken,
                      const std::vector<std::size_t>& members, int shard);
  // Queues `p` and records its kSubmitted event.
  void enqueue_locked(Pending p, const SubmitOptions& sub,
                      std::unique_lock<std::mutex>& lock);
  // The block cap for form_batches of hint group `shard` given the
  // quarantines observed so far.
  std::int64_t max_blocks_locked(int shard) const;

  SessionOptions opts_;
  Cluster cluster_;
  PlanCache plans_;
  // One cross-launch VM stream per device, attached to it. Each
  // stream has its own mutex (enqueues come from the worker inside
  // launches, which run outside mu_). unique_ptr keeps the streams'
  // addresses stable across vector growth -- devices hold raw pointers.
  std::vector<std::unique_ptr<vm::VmStream>> vm_streams_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // queue non-empty / stop
  std::condition_variable cv_space_;  // queue has room
  std::condition_variable cv_idle_;   // queue empty and nothing in flight
  std::condition_variable cv_watchdog_;  // watchdog wakeup / stop
  std::deque<Pending> queue_;
  std::int64_t in_flight_ = 0;
  bool paused_ = false;
  bool stop_ = false;

  // Watchdog bookkeeping, guarded by mu_: the worker stamps each launch;
  // the watchdog alarms once per launch sequence number.
  bool launch_active_ = false;
  std::int64_t launch_seq_ = 0;
  std::int64_t alarmed_seq_ = 0;
  std::chrono::steady_clock::time_point launch_start_{};

  // Stats, guarded by mu_. The latency distributions live in bounded
  // log-linear histograms (constant memory however long the session
  // runs); the *_exact vectors retain the first kLatencySampleCap
  // samples verbatim for percentile cross-checks and are mutable
  // because stats() (const) summarizes them with an in-place sort --
  // order is irrelevant to their only other use (appending).
  SessionStats stats_;
  stats::Histogram latency_hist_;
  stats::Histogram queue_wait_hist_;
  mutable std::vector<double> latency_exact_;
  mutable std::vector<double> queue_wait_exact_;
  std::int64_t batch_members_total_ = 0;
  std::int64_t next_trace_id_ = 0;  // guarded by mu_

  // The request lifecycle ring; has its own leaf mutex, so events can
  // be recorded with or without mu_ held.
  RequestTraceRing req_trace_;

  std::thread worker_;
  std::thread watchdog_;
};

}  // namespace davinci::serve
