#include "serve/session.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "common/percentile.h"
#include "tensor/arena.h"

namespace davinci::serve {

namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolResult;

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::string num(double v) { return json::number(v); }

std::string num(std::int64_t v) { return json::number(v); }

// The open-ended summary fields; callers append histogram / exact
// sub-objects before closing the brace.
std::string latency_json_fields(const LatencySummary& l) {
  return "\"count\":" + num(l.count) + ",\"mean\":" + num(l.mean) +
         ",\"p50\":" + num(l.p50) + ",\"p90\":" + num(l.p90) +
         ",\"p99\":" + num(l.p99) + ",\"p999\":" + num(l.p999) +
         ",\"max\":" + num(l.max);
}

std::int64_t round_us(double v) {
  return static_cast<std::int64_t>(v + 0.5);
}

// A completed resilient launch absorbed faults when any of these moved.
bool degraded(const FaultStats& f) {
  return f.faults_detected > 0 || f.retries > 0 ||
         f.blocks_redispatched > 0 || f.cores_quarantined > 0 ||
         f.faults_absorbed > 0;
}

}  // namespace

const char* to_string(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kRejectNew:
      return "reject-new";
    case OverloadPolicy::kShedOldest:
      return "shed-oldest";
  }
  return "?";
}

Session::Session(Cluster cluster, SessionOptions opts)
    : opts_(opts),
      cluster_(std::move(cluster)),
      plans_(kPlanCacheCapacity),
      req_trace_(kRequestTraceCapacity) {
  DV_CHECK_GE(opts_.queue_depth, 1u);
  DV_CHECK_GE(opts_.max_batch, 1u);
  DV_CHECK_GE(opts_.watchdog_timeout_us, 0);
  DV_CHECK_GE(opts_.vm_in_flight, 1);
  cluster_.set_double_buffer(opts_.double_buffer);
  if (opts_.resilience.has_value()) {
    cluster_.set_resilience(*opts_.resilience);
  }
  for (int d = 0; d < cluster_.num_devices(); ++d) {
    vm_streams_.push_back(std::make_unique<vm::VmStream>(
        vm::VmStreamOptions{opts_.vm_in_flight, opts_.vm_capture}));
    cluster_.set_vm_stream(d, vm_streams_.back().get());
  }
  worker_ = std::thread([this] { worker_loop(); });
  if (opts_.watchdog_timeout_us > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Session::~Session() {
  // Graceful shutdown: whatever is still queued is cancelled -- never
  // silently dropped -- so every future resolves. In-flight work
  // completes inside the worker before it observes stop_ and exits.
  std::vector<Pending> dropped;
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    while (!queue_.empty()) {
      dropped.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    stats_.cancelled += static_cast<std::int64_t>(dropped.size());
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  cv_watchdog_.notify_all();
  for (Pending& p : dropped) {
    req_trace_.record(p.id, ReqEventKind::kCancelled);
    p.promise.set_exception(std::make_exception_ptr(
        Cancelled("session destroyed with the request still queued")));
  }
  worker_.join();
  if (watchdog_.joinable()) watchdog_.join();
}

Session::Pending Session::make_pending(PoolOp op, PoolInputs in,
                                       const SubmitOptions& sub) {
  DV_CHECK_GE(sub.deadline_us, 0);
  DV_CHECK_GE(sub.shard, -1);
  Pending p;
  p.op = std::move(op);
  p.in = in;
  p.submitted = Clock::now();
  if (sub.deadline_us > 0) {
    p.deadline = p.submitted + std::chrono::microseconds(sub.deadline_us);
  }
  p.prio = sub.prio;
  p.shard = sub.shard;
  return p;
}

void Session::assign_id_locked(Pending& p, const SubmitOptions& sub) {
  p.id = next_trace_id_++;
  if (sub.trace_id != nullptr) *sub.trace_id = p.id;
}

void Session::enqueue_locked(Pending p, const SubmitOptions& sub,
                             std::unique_lock<std::mutex>& lock) {
  (void)lock;
  req_trace_.record(p.id, ReqEventKind::kSubmitted, sub.prio,
                    sub.deadline_us);
  queue_.push_back(std::move(p));
  stats_.submitted += 1;
  stats_.peak_queue_depth = std::max(
      stats_.peak_queue_depth, static_cast<std::int64_t>(queue_.size()));
}

std::future<PoolResult> Session::submit(PoolOp op, PoolInputs in,
                                        SubmitOptions sub) {
  Pending p = make_pending(std::move(op), in, sub);
  std::future<PoolResult> f = p.promise.get_future();
  std::optional<Pending> shed;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Trace ids are assigned in admission order, before the overload
    // policy runs, so a blocked submit keeps the id it arrived with.
    assign_id_locked(p, sub);
    if (queue_.size() >= opts_.queue_depth && !stop_) {
      switch (opts_.overload) {
        case OverloadPolicy::kBlock:
          stats_.backpressure_waits += 1;
          cv_space_.wait(lock, [this] {
            return stop_ || queue_.size() < opts_.queue_depth;
          });
          break;
        case OverloadPolicy::kRejectNew: {
          stats_.submitted += 1;
          stats_.rejected += 1;
          req_trace_.record(p.id, ReqEventKind::kSubmitted, sub.prio,
                            sub.deadline_us);
          req_trace_.record(p.id, ReqEventKind::kRejected);
          p.promise.set_exception(std::make_exception_ptr(Overloaded(
              "admission queue full (" + std::to_string(opts_.queue_depth) +
              " requests) and overload policy is reject-new")));
          return f;
        }
        case OverloadPolicy::kShedOldest: {
          // Shed the oldest request of the lowest priority present; the
          // queue is in submission order, so the first match is oldest.
          auto victim = queue_.begin();
          for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->prio < victim->prio) victim = it;
          }
          shed.emplace(std::move(*victim));
          queue_.erase(victim);
          stats_.shed += 1;
          req_trace_.record(shed->id, ReqEventKind::kShed);
          break;
        }
      }
    }
    if (stop_) {
      stats_.cancelled += 1;
      req_trace_.record(p.id, ReqEventKind::kSubmitted, sub.prio,
                        sub.deadline_us);
      req_trace_.record(p.id, ReqEventKind::kCancelled);
      p.promise.set_exception(std::make_exception_ptr(
          Cancelled("session shutting down")));
      return f;
    }
    enqueue_locked(std::move(p), sub, lock);
  }
  if (shed.has_value()) {
    shed->promise.set_exception(std::make_exception_ptr(Overloaded(
        "shed by a newer request (queue full, overload policy "
        "shed-oldest)")));
  }
  cv_work_.notify_one();
  return f;
}

bool Session::try_submit(PoolOp op, PoolInputs in,
                         std::future<PoolResult>* out, SubmitOptions sub) {
  Pending p = make_pending(std::move(op), in, sub);
  std::future<PoolResult> f = p.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_ || queue_.size() >= opts_.queue_depth) return false;
    // Refused probes never consume a trace id.
    assign_id_locked(p, sub);
    enqueue_locked(std::move(p), sub, lock);
  }
  cv_work_.notify_one();
  *out = std::move(f);
  return true;
}

void Session::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] {
    return (queue_.empty() || paused_) && in_flight_ == 0;
  });
  DV_CHECK(queue_.empty() || paused_);
}

bool Session::drain(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_idle_.wait_for(lock, timeout, [this] {
    return (queue_.empty() || paused_) && in_flight_ == 0;
  });
}

void Session::pause() {
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = true;
}

void Session::resume() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

std::int64_t Session::max_blocks_locked(int shard) const {
  // An auto-sharded launch spreads over the whole cluster, so each device
  // still sees at most healthy-cores x kUbWaves blocks; a pinned launch
  // runs whole on one device and gets that device's cores. Quarantine
  // observed on any shard shrinks the cap everywhere (conservative -- a
  // suspect core caps every device's wave budget equally).
  const int cores = shard >= 0 ? cluster_.device(shard).num_cores()
                               : cluster_.total_cores();
  const int healthy = std::max(1, cores - stats_.quarantined_cores);
  return static_cast<std::int64_t>(healthy) * kUbWaves;
}

void Session::worker_loop() {
  for (;;) {
    std::vector<Pending> taken;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] {
        return stop_ || (!paused_ && !queue_.empty());
      });
      if (stop_ && (queue_.empty() || paused_)) return;
      while (!queue_.empty()) {
        taken.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ += static_cast<std::int64_t>(taken.size());
      for (Pending& p : taken) {
        const double w = us_since(p.submitted);
        queue_wait_hist_.record(w);
        if (queue_wait_exact_.size() < kLatencySampleCap) {
          queue_wait_exact_.push_back(w);
        }
        req_trace_.record(p.id, ReqEventKind::kAdmitted, round_us(w));
      }
    }
    cv_space_.notify_all();
    process(std::move(taken));
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (in_flight_ == 0 && (queue_.empty() || paused_)) {
        cv_idle_.notify_all();
      }
    }
  }
}

void Session::watchdog_loop() {
  const auto timeout = std::chrono::microseconds(opts_.watchdog_timeout_us);
  // Sample at least twice per budget, but never spin faster than 50us.
  const auto period = std::max(std::chrono::microseconds(50), timeout / 2);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_watchdog_.wait_for(lock, period);
    if (stop_) return;
    if (launch_active_ && alarmed_seq_ != launch_seq_ &&
        Clock::now() - launch_start_ > timeout) {
      alarmed_seq_ = launch_seq_;
      stats_.watchdog_alarms += 1;
    }
  }
}

void Session::process(std::vector<Pending> taken) {
  // Screen each request alone against the input contract
  // (kernels::check_inputs, the check a bare run_pool makes) and its
  // placement hint, so a malformed one fails only its own future -- its
  // takemates keep going. Cluster::run_batch repeats the check per
  // member, for callers that reach it without a session.
  std::vector<std::size_t> screened;  // taken indices that passed
  for (std::size_t i = 0; i < taken.size(); ++i) {
    try {
      kernels::check_inputs(taken[i].op, taken[i].in);
      if (taken[i].shard >= cluster_.num_devices()) {
        throw Error("shard " + std::to_string(taken[i].shard) +
                    " out of range [0, " +
                    std::to_string(cluster_.num_devices()) + ")");
      }
    } catch (...) {
      taken[i].promise.set_exception(std::current_exception());
      req_trace_.record(taken[i].id, ReqEventKind::kFailed);
      std::unique_lock<std::mutex> lock(mu_);
      stats_.failed += 1;
      continue;
    }
    screened.push_back(i);
  }

  // Partition the take by placement hint: auto (-1) requests shard
  // through the router; pinned ones launch on their device, so a pinned
  // request never coalesces with a differently-pinned one. Hint groups
  // launch in ascending hint order (auto first); within a group the
  // pre-cluster behavior is unchanged -- an all-auto take is one group,
  // identical to the single-partition path this generalizes.
  std::map<int, std::vector<std::size_t>> groups;  // hint -> taken indices
  for (std::size_t i : screened) groups[taken[i].shard].push_back(i);

  for (auto& [shard, group] : groups) {
    std::vector<RequestView> views;  // views[j] is taken[group[j]]
    views.reserve(group.size());
    for (std::size_t i : group) {
      views.push_back(RequestView{&taken[i].op, &taken[i].in});
    }

    std::int64_t max_blocks = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      max_blocks = max_blocks_locked(shard);
    }
    std::vector<Batch> batches =
        form_batches(views, opts_.max_batch, max_blocks);
    for (Batch& b : batches) {
      for (std::size_t& m : b.members) m = group[m];  // now taken indices
    }

    // Deadline-aware launch order: batches with the most urgent member
    // go first (earliest-deadline-first across the group; submission
    // order within a batch and among deadline-free batches).
    auto urgency = [&](const Batch& b) {
      Clock::time_point earliest = Clock::time_point::max();
      for (std::size_t m : b.members) {
        const Pending& p = taken[m];
        if (p.deadline.has_value() && *p.deadline < earliest) {
          earliest = *p.deadline;
        }
      }
      return earliest;
    };
    std::stable_sort(batches.begin(), batches.end(),
                     [&](const Batch& a, const Batch& b) {
                       return urgency(a) < urgency(b);
                     });

    for (Batch& b : batches) {
      execute_members(taken, std::move(b.members), shard);
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    in_flight_ -= static_cast<std::int64_t>(taken.size());
  }
}

void Session::execute_members(std::vector<Pending>& taken,
                              std::vector<std::size_t> members, int shard) {
  // In-queue expiry: a lapsed deadline fails the request here, before
  // any launch, and drops it from the batch -- batchmates launch without
  // it.
  const Clock::time_point now = Clock::now();
  std::vector<std::size_t> live;
  live.reserve(members.size());
  std::int64_t expired = 0;
  for (std::size_t m : members) {
    Pending& p = taken[m];
    if (p.deadline.has_value() && *p.deadline < now) {
      p.promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
          "deadline exceeded after " + std::to_string(us_since(p.submitted)) +
          "us in queue (request never launched)")));
      req_trace_.record(p.id, ReqEventKind::kExpired,
                        round_us(us_since(p.submitted)));
      expired += 1;
    } else {
      live.push_back(m);
    }
  }
  if (expired > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    stats_.expired += expired;
  }
  if (live.empty()) return;

  std::exception_ptr err;
  bool bisectable = false;
  try {
    launch_members(taken, live, shard);
    return;
  } catch (const CoreFailed&) {
    err = std::current_exception();
    bisectable = true;
  } catch (const RetryExhausted&) {
    err = std::current_exception();
    bisectable = true;
  } catch (...) {
    err = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    stats_.launch_failures += 1;
  }

  if (bisectable && live.size() >= 2) {
    // The resilient path gave up on the coalesced launch: bisect so the
    // poisoned member(s) fail alone. Each half re-checks deadlines and
    // may bisect further; cost is O(log batch) extra launches.
    {
      std::unique_lock<std::mutex> lock(mu_);
      stats_.bisections += 1;
    }
    for (std::size_t m : live) {
      req_trace_.record(taken[m].id, ReqEventKind::kBisected,
                        static_cast<std::int64_t>(live.size()));
    }
    const std::size_t mid = live.size() / 2;
    std::vector<std::size_t> lo(live.begin(),
                                live.begin() + static_cast<long>(mid));
    std::vector<std::size_t> hi(live.begin() + static_cast<long>(mid),
                                live.end());
    execute_members(taken, std::move(lo), shard);
    execute_members(taken, std::move(hi), shard);
    return;
  }

  for (std::size_t m : live) {
    taken[m].promise.set_exception(err);
    req_trace_.record(taken[m].id, bisectable ? ReqEventKind::kPoisoned
                                              : ReqEventKind::kFailed);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    stats_.failed += static_cast<std::int64_t>(live.size());
    if (bisectable) {
      stats_.poisoned_requests += static_cast<std::int64_t>(live.size());
    }
  }
}

void Session::launch_members(std::vector<Pending>& taken,
                             const std::vector<std::size_t>& members,
                             int shard) {
  // Resolve the launch descriptor: the first member's op with the cached
  // tiling plan attached (all members share the PlanKey by construction
  // of the BatchKey). Plans are keyed on per-block geometry, never N or
  // C1, so one cached plan serves every shard of the launch.
  PoolOp op = taken[members.front()].op;
  const PoolInputs& first_in = taken[members.front()].in;
  const RequestGeometry g = request_geometry(op, first_in);
  const std::optional<PlanKey> key =
      plan_key_for(op, g.ih, g.iw, cluster_.device(0).double_buffer());
  std::int64_t plan_hit = -1;  // -1: no plan lookup for this launch
  if (key.has_value() && !op.plan.has_value()) {
    std::unique_lock<std::mutex> lock(mu_);
    const std::int64_t hits_before = plans_.stats().hits;
    op.plan = plans_.get(cluster_.device(0).arch(), *key);
    plan_hit = plans_.stats().hits > hits_before ? 1 : 0;
  }
  if (plan_hit >= 0) {
    for (std::size_t m : members) {
      req_trace_.record(taken[m].id, ReqEventKind::kPlanned, plan_hit);
    }
  }

  // Stamp the launch for the watchdog; cleared on every exit path. The
  // 0-based sequence number doubles as the batch id in the request
  // trace -- after reset_stats it re-aligns with the VM stream's launch
  // sequence, so trace consumers can join host and device spans.
  std::int64_t batch_id = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    batch_id = launch_seq_;
    launch_seq_ += 1;
    launch_start_ = Clock::now();
    launch_active_ = true;
  }
  const std::int64_t batch_n = static_cast<std::int64_t>(members.size());
  for (std::size_t m : members) {
    req_trace_.record(taken[m].id, ReqEventKind::kBatched, batch_id, batch_n);
    req_trace_.record(taken[m].id, ReqEventKind::kLaunched, batch_id, batch_n);
  }
  struct LaunchScope {
    Session* s;
    ~LaunchScope() {
      std::unique_lock<std::mutex> lock(s->mu_);
      s->launch_active_ = false;
      // The watchdog thread only samples launches still in flight; an
      // overrun that ends between two samples alarms here instead (still
      // once per launch sequence number).
      if (s->opts_.watchdog_timeout_us > 0 &&
          s->alarmed_seq_ != s->launch_seq_ &&
          Clock::now() - s->launch_start_ >
              std::chrono::microseconds(s->opts_.watchdog_timeout_us)) {
        s->alarmed_seq_ = s->launch_seq_;
        s->stats_.watchdog_alarms += 1;
      }
    }
  } scope{this};

  std::vector<PoolInputs> inputs;
  inputs.reserve(members.size());
  for (std::size_t m : members) inputs.push_back(taken[m].in);
  std::vector<PoolResult> results = cluster_.run_batch(op, inputs, shard);
  // Every member carries the launch's aggregated run.
  const std::int64_t launch_cycles = results.front().run.device_cycles;
  const FaultStats launch_faults = results.front().run.faults;
  const std::int64_t vm_start = results.front().run.vm_start;
  const std::int64_t vm_end = results.front().run.vm_end;
  for (std::size_t i = 0; i < members.size(); ++i) {
    taken[members[i]].promise.set_value(std::move(results[i]));
  }
  if (vm_end > 0) {
    // The launch's scheduled span on the cross-launch stream timeline --
    // the anchor that aligns request rows with device tracks in the
    // unified Chrome trace.
    for (std::size_t m : members) {
      req_trace_.record(taken[m].id, ReqEventKind::kVmScheduled,
                        vm_start, vm_end);
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  stats_.completed += static_cast<std::int64_t>(members.size());
  stats_.launches += 1;
  stats_.device_cycles_total += launch_cycles;
  stats_.faults += launch_faults;
  if (degraded(launch_faults)) stats_.degraded_launches += 1;
  // A quarantined core stays suspect for the session: shrink the block
  // cap so later coalesced launches fit the healthy cores' UB waves.
  stats_.quarantined_cores =
      std::max(stats_.quarantined_cores,
               static_cast<int>(launch_faults.cores_quarantined));
  batch_members_total_ += static_cast<std::int64_t>(members.size());
  stats_.max_batch = std::max(stats_.max_batch, members.size());
  if (members.size() >= 2) {
    stats_.batches += 1;
    stats_.coalesced_requests += static_cast<std::int64_t>(members.size());
  }
  for (std::size_t m : members) {
    const double lat = us_since(taken[m].submitted);
    latency_hist_.record(lat);
    if (latency_exact_.size() < kLatencySampleCap) {
      latency_exact_.push_back(lat);
    }
    req_trace_.record(taken[m].id, ReqEventKind::kCompleted,
                      round_us(lat), batch_id);
  }
}

SessionStats Session::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  SessionStats s = stats_;
  s.latency = latency_hist_.summary();
  s.queue_wait = queue_wait_hist_.summary();
  s.latency_exact = stats::summarize(latency_exact_);
  s.queue_wait_exact = stats::summarize(queue_wait_exact_);
  s.queue_depth = static_cast<std::int64_t>(queue_.size());
  s.request_trace = req_trace_.stats();
  s.devices = cluster_.num_devices();
  s.placement = cluster_.placement();
  s.cluster = cluster_.stats();
  // One device reports its stream verbatim (bit-for-bit the pre-cluster
  // numbers). Multiple devices aggregate: makespan is the busiest
  // device's (the compute leg of the roofline), additive counters and
  // per-pipe buckets sum, and overlap is recomputed against the
  // aggregate makespan. The busy+wait+flag+idle == makespan * tracks
  // invariant holds per device, not for the aggregate.
  s.vm = vm_streams_.front()->stats();
  s.vm_makespan_per_device.reserve(vm_streams_.size());
  s.vm_makespan_per_device.push_back(s.vm.makespan);
  for (std::size_t d = 1; d < vm_streams_.size(); ++d) {
    const vm::VmStream::Stats ds = vm_streams_[d]->stats();
    s.vm_makespan_per_device.push_back(ds.makespan);
    s.vm.launches += ds.launches;
    s.vm.serial_sum += ds.serial_sum;
    s.vm.window_stalls += ds.window_stalls;
    s.vm.hazard_stalls += ds.hazard_stalls;
    s.vm.makespan = std::max(s.vm.makespan, ds.makespan);
    for (int pi = 0; pi < PipeScheduler::kNumPipes; ++pi) {
      vm::VmStream::PipeStream& agg = s.vm.streams[pi];
      const vm::VmStream::PipeStream& ps = ds.streams[pi];
      agg.tracks += ps.tracks;
      agg.busy += ps.busy;
      agg.wait += ps.wait;
      agg.flag += ps.flag;
      agg.idle += ps.idle;
    }
  }
  if (vm_streams_.size() > 1) {
    s.vm.overlap_cycles = s.vm.serial_sum - s.vm.makespan;
    for (int pi = 0; pi < PipeScheduler::kNumPipes; ++pi) {
      vm::VmStream::PipeStream& agg = s.vm.streams[pi];
      const std::int64_t total = agg.busy + agg.wait + agg.flag + agg.idle;
      agg.occupancy =
          total > 0 ? static_cast<double>(agg.busy) / static_cast<double>(total)
                    : 0.0;
    }
  }
  // Cluster roofline: the stream is bounded below by its busiest
  // device's compute and its busiest link's cumulative transfer time.
  // Identical to vm.makespan on one device (no links).
  s.cluster_makespan = std::max(s.vm.makespan, s.cluster.link_busy_cycles);
  s.avg_batch = s.launches > 0
                    ? static_cast<double>(batch_members_total_) /
                          static_cast<double>(s.launches)
                    : 0.0;
  s.plan_cache = plans_.stats();
  s.plan_cache_size = plans_.size();
  s.plan_cache_capacity = plans_.capacity();
  return s;
}

void Session::reset_stats() {
  std::unique_lock<std::mutex> lock(mu_);
  DV_CHECK(in_flight_ == 0 && queue_.empty())
      << "reset_stats on a non-idle session";
  stats_ = {};
  latency_hist_.reset();
  queue_wait_hist_.reset();
  latency_exact_.clear();
  queue_wait_exact_.clear();
  batch_members_total_ = 0;
  // Re-align the batch-id sequence with the (reset) VM stream's launch
  // sequence so post-warmup trace events join cleanly.
  launch_seq_ = 0;
  alarmed_seq_ = 0;
  req_trace_.reset();
  plans_.reset_stats();
  for (const std::unique_ptr<vm::VmStream>& s : vm_streams_) s->reset();
  cluster_.reset_stats();
}

std::string Session::serve_json() const {
  const SessionStats s = stats();
  // The histogram serializations are grabbed under a second short lock;
  // between stats() and here new samples may land, so the buckets can be
  // marginally newer than the summary -- fine for reporting.
  std::string lat_buckets, qw_buckets;
  std::int64_t lat_dropped = 0, qw_dropped = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    lat_buckets = latency_hist_.buckets_json();
    lat_dropped = latency_hist_.dropped();
    qw_buckets = queue_wait_hist_.buckets_json();
    qw_dropped = queue_wait_hist_.dropped();
  }
  auto latency_obj = [](const LatencySummary& l, const LatencySummary& ex,
                        const std::string& buckets, std::int64_t dropped) {
    // "complete" marks an exact set that saw every sample (count within
    // the retention cap), i.e. the histogram percentiles can be
    // cross-checked against exact ones at full fidelity.
    std::string o = "{";
    o += latency_json_fields(l);
    o += ",\"hist\":{\"buckets\":";
    o += buckets;
    o += ",\"dropped\":" + num(dropped) +
         "},\"exact\":{\"count\":" + num(ex.count) +
         ",\"p50\":" + num(ex.p50) + ",\"p99\":" + num(ex.p99) +
         ",\"p999\":" + num(ex.p999) + ",\"complete\":" +
         (ex.count == l.count ? "true" : "false") + "}}";
    return o;
  };
  std::string j = "{";
  j += "\"requests\":" + num(s.submitted);
  j += ",\"completed\":" + num(s.completed);
  j += ",\"failed\":" + num(s.failed);
  j += ",\"expired\":" + num(s.expired);
  j += ",\"shed\":" + num(s.shed);
  j += ",\"rejected\":" + num(s.rejected);
  j += ",\"cancelled\":" + num(s.cancelled);
  j += ",\"launches\":" + num(s.launches);
  j += ",\"batches\":" + num(s.batches);
  j += ",\"coalesced_requests\":" + num(s.coalesced_requests);
  j += ",\"max_batch\":" + num(static_cast<std::int64_t>(s.max_batch));
  j += ",\"avg_batch\":" + num(s.avg_batch);
  j += ",\"device_cycles_total\":" + num(s.device_cycles_total);
  // Schema v5 (kept in v6): the cross-launch VM schedule. "makespan" is
  // the overlapped device time of the whole request stream (a gated
  // metric in davinci_prof --diff); each per-pipe stream holds the PR-4
  // bucket invariant busy + wait + flag + idle == makespan * tracks.
  j += ",\"vm\":{\"in_flight\":" +
       num(static_cast<std::int64_t>(s.vm.in_flight)) +
       ",\"launches\":" + num(s.vm.launches) +
       ",\"makespan\":" + num(s.vm.makespan) +
       ",\"serial_sum\":" + num(s.vm.serial_sum) +
       ",\"overlap_cycles\":" + num(s.vm.overlap_cycles) +
       ",\"window_stalls\":" + num(s.vm.window_stalls) +
       ",\"hazard_stalls\":" + num(s.vm.hazard_stalls) + ",\"streams\":{";
  {
    bool first = true;
    for (int pi = 0; pi < PipeScheduler::kNumPipes; ++pi) {
      const vm::VmStream::PipeStream& ps = s.vm.streams[pi];
      if (ps.tracks == 0) continue;
      if (!first) j += ",";
      first = false;
      j += "\"" + std::string(to_string(static_cast<Pipe>(pi))) +
           "\":{\"tracks\":" + num(ps.tracks) + ",\"busy\":" + num(ps.busy) +
           ",\"wait\":" + num(ps.wait) + ",\"flag\":" + num(ps.flag) +
           ",\"idle\":" + num(ps.idle) +
           ",\"occupancy\":" + num(ps.occupancy) + "}";
    }
  }
  j += "}}";
  // Schema v7: the placement router's view of the stream. "makespan" is
  // the cluster roofline (max of the busiest device's VM makespan and
  // the busiest link's busy time; equals vm.makespan on one device).
  // per_device rows carry each device's share plus its own VM makespan;
  // links lists only directed links that carried traffic.
  j += ",\"cluster\":{\"devices\":" +
       num(static_cast<std::int64_t>(s.devices)) + ",\"placement\":\"" +
       std::string(to_string(s.placement)) +
       "\",\"link_bytes_per_cycle\":" + num(kLinkBytesPerCycle) +
       ",\"link_latency_cycles\":" + num(kLinkLatencyCycles) +
       ",\"launches\":" + num(s.cluster.launches) +
       ",\"sharded_launches\":" + num(s.cluster.sharded_launches) +
       ",\"redistribution\":{\"transfers\":" +
       num(s.cluster.redistribution_transfers) +
       ",\"bytes\":" + num(s.cluster.redistribution_bytes) +
       ",\"cycles\":" + num(s.cluster.redistribution_cycles) + "}" +
       ",\"link_busy_cycles\":" + num(s.cluster.link_busy_cycles) +
       ",\"makespan\":" + num(s.cluster_makespan) + ",\"per_device\":[";
  for (std::size_t d = 0; d < s.cluster.devices.size(); ++d) {
    const Cluster::DeviceStats& ds = s.cluster.devices[d];
    if (d > 0) j += ",";
    j += "{\"device\":" + num(static_cast<std::int64_t>(d)) +
         ",\"launches\":" + num(ds.launches) +
         ",\"blocks\":" + num(ds.blocks) + ",\"cycles\":" + num(ds.cycles) +
         ",\"inflight_shards\":" + num(ds.inflight_shards) +
         ",\"vm_makespan\":" +
         num(d < s.vm_makespan_per_device.size()
                 ? s.vm_makespan_per_device[d]
                 : 0) +
         "}";
  }
  j += "],\"links\":[";
  {
    bool first = true;
    const int d_count = s.devices;
    for (int src = 0; src < d_count; ++src) {
      for (int dst = 0; dst < d_count; ++dst) {
        const Cluster::LinkStats& ls =
            s.cluster.links[static_cast<std::size_t>(src * d_count + dst)];
        if (ls.transfers == 0) continue;
        if (!first) j += ",";
        first = false;
        j += "{\"src\":" + num(static_cast<std::int64_t>(src)) +
             ",\"dst\":" + num(static_cast<std::int64_t>(dst)) +
             ",\"transfers\":" + num(ls.transfers) +
             ",\"bytes\":" + num(ls.bytes) + ",\"cycles\":" + num(ls.cycles) +
             "}";
      }
    }
  }
  j += "]}";
  j += ",\"overload_policy\":\"" + std::string(to_string(opts_.overload)) +
       "\"";
  j += ",\"watchdog_alarms\":" + num(s.watchdog_alarms);
  j += ",\"queue\":{\"capacity\":" +
       num(static_cast<std::int64_t>(opts_.queue_depth)) +
       ",\"peak_depth\":" + num(s.peak_queue_depth) +
       ",\"backpressure_waits\":" + num(s.backpressure_waits) + "}";
  j += ",\"resilience\":{\"enabled\":" +
       std::string(opts_.resilience.has_value() ? "true" : "false") +
       ",\"degraded_launches\":" + num(s.degraded_launches) +
       ",\"bisections\":" + num(s.bisections) +
       ",\"poisoned_requests\":" + num(s.poisoned_requests) +
       ",\"launch_failures\":" + num(s.launch_failures) +
       ",\"quarantined_cores\":" +
       num(static_cast<std::int64_t>(s.quarantined_cores)) +
       ",\"faults_injected\":" + num(s.faults.faults_injected) +
       ",\"silent_injected\":" + num(s.faults.silent_injected) +
       ",\"faults_detected\":" + num(s.faults.faults_detected) +
       ",\"faults_absorbed\":" + num(s.faults.faults_absorbed) +
       ",\"retries\":" + num(s.faults.retries) +
       ",\"verification_runs\":" + num(s.faults.verification_runs) +
       ",\"blocks_redispatched\":" + num(s.faults.blocks_redispatched) +
       ",\"cores_quarantined_total\":" + num(s.faults.cores_quarantined) +
       "}";
  j += ",\"plan_cache\":{\"hits\":" + num(s.plan_cache.hits) +
       ",\"misses\":" + num(s.plan_cache.misses) +
       ",\"evictions\":" + num(s.plan_cache.evictions) +
       ",\"size\":" + num(static_cast<std::int64_t>(s.plan_cache_size)) +
       ",\"capacity\":" +
       num(static_cast<std::int64_t>(s.plan_cache_capacity)) +
       ",\"hit_rate\":" + num(s.plan_cache.hit_rate()) + "}";
  // Schema v6: p999 joins the summary fields, each latency object gains
  // a "hist" (sparse log-linear buckets, offline-mergeable) and an
  // "exact" cross-check sub-object, and "request_trace" reports the
  // lifecycle ring's counters.
  j += ",\"host_latency_us\":" +
       latency_obj(s.latency, s.latency_exact, lat_buckets, lat_dropped);
  j += ",\"host_queue_wait_us\":" +
       latency_obj(s.queue_wait, s.queue_wait_exact, qw_buckets,
                   qw_dropped);
  j += ",\"queue_depth\":" + num(s.queue_depth);
  j += ",\"request_trace\":" + request_trace_json(s.request_trace);
  j += "}";
  return j;
}

std::string Session::unified_chrome_trace() const {
  // The unified trace exports device 0's stream timeline (the ingress
  // device); on a multi-device cluster the other devices' schedules are
  // summarized in serve_json()'s "cluster" object instead.
  return unified_chrome_trace_json(*vm_streams_.front(),
                                   build_request_spans(req_trace_.snapshot()));
}

void Session::write_unified_chrome_trace(const std::string& path) const {
  davinci::write_unified_chrome_trace(
      path, *vm_streams_.front(), build_request_spans(req_trace_.snapshot()));
}

}  // namespace davinci::serve
