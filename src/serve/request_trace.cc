#include "serve/request_trace.h"

#include <algorithm>
#include <unordered_map>

#include "common/json.h"

namespace davinci::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0, Clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - t0).count();
}

}  // namespace

const char* to_string(ReqEventKind kind) {
  switch (kind) {
    case ReqEventKind::kSubmitted: return "submitted";
    case ReqEventKind::kAdmitted: return "admitted";
    case ReqEventKind::kBatched: return "batched";
    case ReqEventKind::kPlanned: return "planned";
    case ReqEventKind::kLaunched: return "launched";
    case ReqEventKind::kVmScheduled: return "vm_scheduled";
    case ReqEventKind::kCompleted: return "completed";
    case ReqEventKind::kExpired: return "expired";
    case ReqEventKind::kShed: return "shed";
    case ReqEventKind::kRejected: return "rejected";
    case ReqEventKind::kCancelled: return "cancelled";
    case ReqEventKind::kBisected: return "bisected";
    case ReqEventKind::kPoisoned: return "poisoned";
    case ReqEventKind::kFailed: return "failed";
  }
  return "?";
}

RequestTraceRing::RequestTraceRing(std::size_t capacity)
    : capacity_(capacity), epoch_(Clock::now()) {
  stats_.capacity = capacity_;
  ring_.reserve(capacity_);
}

void RequestTraceRing::record(std::int64_t request, ReqEventKind kind,
                              std::int64_t a, std::int64_t b) {
  if (capacity_ == 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  ReqEvent e;
  e.request = request;
  e.kind = kind;
  e.t_us = us_since(epoch_, now);
  e.a = a;
  e.b = b;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    // Overwrite the oldest event (bounded memory); the cumulative
    // counters below stay exact, only the retained window shrinks.
    ring_[static_cast<std::size_t>(stats_.recorded) % capacity_] = e;
    stats_.dropped += 1;
  }
  stats_.recorded += 1;
  stats_.by_kind[static_cast<int>(kind)] += 1;
}

RequestTraceRing::Stats RequestTraceRing::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<ReqEvent> RequestTraceRing::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReqEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_ || capacity_ == 0) {
    out = ring_;
  } else {
    // The ring wrapped: oldest retained event sits at the write cursor.
    const std::size_t head =
        static_cast<std::size_t>(stats_.recorded) % capacity_;
    out.insert(out.end(), ring_.begin() + static_cast<long>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<long>(head));
  }
  return out;
}

void RequestTraceRing::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  stats_ = Stats{};
  stats_.capacity = capacity_;
  epoch_ = Clock::now();
}

std::vector<HostSpan> build_request_spans(
    const std::vector<ReqEvent>& events) {
  // Per-request fold of the (time-ordered) snapshot.
  struct Req {
    std::int64_t id = 0;
    double submitted = -1.0, admitted = -1.0, launched = -1.0;
    double terminal = -1.0;  // completion or failure timestamp
    std::int64_t batch = -1, batch_size = 0;
    std::int64_t plan_hit = -1;
    std::int64_t vm_start = -1, vm_end = -1;
    ReqEventKind outcome = ReqEventKind::kSubmitted;
    bool done = false;
  };
  std::vector<Req> reqs;
  std::unordered_map<std::int64_t, std::size_t> index;
  auto find = [&](std::int64_t id) -> Req& {
    auto [it, inserted] = index.try_emplace(id, reqs.size());
    if (inserted) {
      reqs.push_back(Req{});
      reqs.back().id = id;
    }
    return reqs[it->second];
  };
  for (const ReqEvent& e : events) {
    Req& r = find(e.request);
    switch (e.kind) {
      case ReqEventKind::kSubmitted: r.submitted = e.t_us; break;
      case ReqEventKind::kAdmitted: r.admitted = e.t_us; break;
      case ReqEventKind::kPlanned: r.plan_hit = e.a; break;
      case ReqEventKind::kBatched:
        r.batch = e.a;
        r.batch_size = e.b;
        break;
      case ReqEventKind::kLaunched: r.launched = e.t_us; break;
      case ReqEventKind::kVmScheduled:
        r.vm_start = e.a;
        r.vm_end = e.b;
        break;
      case ReqEventKind::kCompleted:
      case ReqEventKind::kExpired:
      case ReqEventKind::kShed:
      case ReqEventKind::kRejected:
      case ReqEventKind::kCancelled:
      case ReqEventKind::kPoisoned:
      case ReqEventKind::kFailed:
        r.terminal = e.t_us;
        r.outcome = e.kind;
        r.done = true;
        break;
      case ReqEventKind::kBisected: break;
    }
  }

  // Affine host-us -> stream-cycle map, anchored on (launched, vm_start)
  // pairs: the launch event is the host-side moment the VM placed the
  // launch, so anchoring there lines the queued/batching phases up with
  // the device tracks they precede. One anchor fixes the offset with a
  // 1 cycle/us scale; two or more fix the scale from the extreme
  // anchors. No anchor (nothing launched): identity, the trace is
  // host-only but still self-consistent.
  double a0_us = 0.0, a0_cy = 0.0, scale = 1.0;
  {
    const Req* lo = nullptr;
    const Req* hi = nullptr;
    for (const Req& r : reqs) {
      if (r.launched < 0.0 || r.vm_start < 0) continue;
      if (lo == nullptr || r.launched < lo->launched) lo = &r;
      if (hi == nullptr || r.launched > hi->launched) hi = &r;
    }
    if (lo != nullptr) {
      a0_us = lo->launched;
      a0_cy = static_cast<double>(lo->vm_start);
      if (hi != lo && hi->launched > lo->launched + 1e-9) {
        const double s = static_cast<double>(hi->vm_start - lo->vm_start) /
                         (hi->launched - lo->launched);
        if (s > 0.0) scale = s;
      }
    }
  }
  auto to_cycles = [&](double t_us) {
    const double c = a0_cy + (t_us - a0_us) * scale;
    return c > 0.0 ? static_cast<std::int64_t>(c) : 0;
  };

  std::sort(reqs.begin(), reqs.end(),
            [](const Req& a, const Req& b) { return a.id < b.id; });

  std::vector<HostSpan> spans;
  for (const Req& r : reqs) {
    if (r.submitted < 0.0) continue;  // admission fell out of the ring
    HostSpan base;
    base.row = static_cast<int>(r.id);
    base.row_name = "req " + std::to_string(r.id);

    const bool launched = r.launched >= 0.0;
    const bool placed = launched && r.vm_start >= 0;
    // Queued: submit -> admission (or the terminal event for requests
    // that never reached the worker).
    const double queue_end_us = r.admitted >= 0.0
                                    ? r.admitted
                                    : (r.terminal >= 0.0 ? r.terminal
                                                         : r.submitted);
    HostSpan queued = base;
    queued.name = "queued";
    queued.start = to_cycles(r.submitted);
    queued.end = std::max(queued.start, to_cycles(queue_end_us));
    queued.args_json = "{\"request\":" + json::number(r.id) + "}";
    spans.push_back(queued);

    if (launched) {
      // Batching/planning: admission -> launch. Clamp the end to the
      // launch's VM placement so the phases tile exactly against the
      // device span.
      HostSpan form = base;
      form.name = "batching";
      form.start = queued.end;
      form.end = placed ? r.vm_start
                        : std::max(form.start, to_cycles(r.launched));
      if (form.end < form.start) form.end = form.start;
      form.args_json = "{\"batch\":" + json::number(r.batch) +
                       ",\"batch_size\":" + json::number(r.batch_size) +
                       ",\"plan_cache_hit\":" +
                       (r.plan_hit > 0 ? "true" : "false") + "}";
      spans.push_back(form);

      HostSpan exec = base;
      exec.name = "execute";
      if (placed) {
        // Device-aligned by construction: the launch's scheduled span
        // on the VM stream timeline.
        exec.start = r.vm_start;
        exec.end = std::max(r.vm_start, r.vm_end);
      } else {
        exec.start = form.end;
        exec.end = std::max(exec.start,
                            to_cycles(r.terminal >= 0.0 ? r.terminal
                                                        : r.launched));
      }
      exec.args_json = "{\"batch\":" + json::number(r.batch) +
                       ",\"launch\":" + json::number(r.batch) + "}";
      spans.push_back(exec);
    }

    if (r.done && r.outcome != ReqEventKind::kCompleted) {
      HostSpan term = base;
      term.instant = true;
      term.name = to_string(r.outcome);
      term.start = term.end =
          std::max(to_cycles(r.terminal), launched ? spans.back().end
                                                   : queued.end);
      spans.push_back(term);
    }
  }
  return spans;
}

std::string request_trace_json(const RequestTraceRing::Stats& stats) {
  std::string j = "{\"capacity\":" +
                  json::number(static_cast<std::int64_t>(stats.capacity)) +
                  ",\"recorded\":" + json::number(stats.recorded) +
                  ",\"dropped\":" + json::number(stats.dropped) +
                  ",\"by_kind\":{";
  bool first = true;
  for (int k = 0; k < kNumReqEventKinds; ++k) {
    if (stats.by_kind[k] == 0) continue;
    if (!first) j += ",";
    first = false;
    j += '"';
    j += to_string(static_cast<ReqEventKind>(k));
    j += "\":";
    j += json::number(stats.by_kind[k]);
  }
  j += "}}";
  return j;
}

}  // namespace davinci::serve
