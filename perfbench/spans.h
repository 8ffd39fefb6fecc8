// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around each public call it makes
// into the system (nothing inside src/ is instrumented). A span has a
// name, the layer it is charged to, start/end, a parent span and the
// request id (the SubmitOptions::trace_id for serving requests, the call
// index for bare kernel calls). Host spans are in steady_clock
// nanoseconds; spans built from RunResult::vm_start/vm_end live on the
// VM's device-cycle clock and are flagged `cycles`.
//
// Each thread records into its own SpanLog; logs are merged and written
// once, when the run ends. Self time of a span is its duration minus the
// union of its children's intervals (clipped to the span).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1: root
  const char* name = "";
  const char* layer = "";
  std::int64_t start = 0, end = 0;
  std::int64_t request = -1;
  bool cycles = false;  // device-cycle clock instead of host ns
};

// Span ids are unique across threads so parents can be referenced before
// the logs are merged.
inline std::int64_t next_span_id() {
  static std::atomic<std::int64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  bool on() const { return on_; }

  // Records a finished span and returns its id (-1 when tracing is off).
  std::int64_t add(const char* name, const char* layer, std::int64_t start,
                   std::int64_t end, std::int64_t parent = -1,
                   std::int64_t request = -1, bool cycles = false) {
    if (!on_) return -1;
    Span s;
    s.id = next_span_id();
    s.parent = parent;
    s.name = name;
    s.layer = layer;
    s.start = start;
    s.end = end;
    s.request = request;
    s.cycles = cycles;
    spans_.push_back(s);
    return s.id;
  }

  void append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// Total self time per layer, in nanoseconds, over the host-clock spans
// whose root span started in [since, until) -- so setup and check-phase
// spans can be kept apart from the measured phase.
inline std::map<std::string, std::int64_t> self_time_by_layer(
    const std::vector<Span>& spans, std::int64_t since, std::int64_t until) {
  std::map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.cycles || s.parent < 0) continue;
    children[s.parent].push_back({s.start, s.end});
  }
  auto root_start = [&](const Span& s) {
    const Span* r = &s;
    while (r->parent >= 0) {
      auto it = index.find(r->parent);
      if (it == index.end()) break;
      r = &spans[it->second];
    }
    return r->start;
  };
  std::map<std::string, std::int64_t> out;
  for (const Span& s : spans) {
    if (s.cycles) continue;
    const std::int64_t root = root_start(s);
    if (root < since || root >= until) continue;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_start = 0, cur_end = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    out[s.layer] += std::max<std::int64_t>(0, (s.end - s.start) - covered);
  }
  return out;
}

// One span per line, tab-separated:
// id parent layer name clock start end request
inline bool write_spans(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tlayer\tname\tclock\tstart\tend\trequest\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%lld\t%lld\t%s\t%s\t%s\t%lld\t%lld\t%lld\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.layer, s.name,
                 s.cycles ? "cycles" : "ns", static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
