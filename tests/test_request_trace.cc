// Tests for request lifecycle tracing (serve/request_trace.h): the
// bounded event ring, the end-to-end event sequences a serving session
// records, and the unified host+device Chrome trace.
#include "serve/request_trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "kernels/pooling.h"
#include "serve/session.h"
#include "sim/trace_export.h"
#include "tensor/tensor.h"

using namespace davinci;
using namespace davinci::serve;
using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;

namespace {

TensorF16 make_input(std::int64_t n, std::int64_t h, std::int64_t w,
                     std::uint64_t seed) {
  TensorF16 t(Shape{n, 2, h, w, kC0});
  t.fill_random_ints(seed);
  return t;
}

PoolOp max3x2() {
  return PoolOp{.kind = PoolOpKind::kMaxFwd,
                .window = Window2d::pool(3, 2),
                .fwd = akg::PoolImpl::kIm2col};
}

std::vector<ReqEvent> events_for(const std::vector<ReqEvent>& all,
                                 std::int64_t id) {
  std::vector<ReqEvent> out;
  for (const ReqEvent& e : all) {
    if (e.request == id) out.push_back(e);
  }
  return out;
}

bool has_kind(const std::vector<ReqEvent>& evs, ReqEventKind k) {
  return std::any_of(evs.begin(), evs.end(),
                     [k](const ReqEvent& e) { return e.kind == k; });
}

}  // namespace

// --- The ring itself -----------------------------------------------------

TEST(RequestTraceRing, BoundedOverwriteWithDropCounter) {
  RequestTraceRing ring(4);
  ASSERT_TRUE(ring.enabled());
  for (std::int64_t i = 0; i < 10; ++i) {
    ring.record(i, ReqEventKind::kSubmitted, i);
  }
  const RequestTraceRing::Stats s = ring.stats();
  EXPECT_EQ(s.capacity, 4u);
  EXPECT_EQ(s.recorded, 10);
  EXPECT_EQ(s.dropped, 6);
  // Cumulative per-kind counters stay exact despite the overwrites.
  EXPECT_EQ(s.by_kind[static_cast<int>(ReqEventKind::kSubmitted)], 10);

  // The snapshot holds the newest 4 events, oldest first.
  const std::vector<ReqEvent> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].request, static_cast<std::int64_t>(6 + i));
  }
  // Timestamps are monotone within the snapshot.
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i].t_us, snap[i - 1].t_us);
  }
}

TEST(RequestTraceRing, ZeroCapacityDisablesRecording) {
  RequestTraceRing ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.record(1, ReqEventKind::kSubmitted);
  EXPECT_EQ(ring.stats().recorded, 0);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(RequestTraceRing, ResetForgetsEventsAndRestartsEpoch) {
  RequestTraceRing ring(8);
  ring.record(1, ReqEventKind::kSubmitted);
  ring.record(1, ReqEventKind::kCompleted);
  ring.reset();
  EXPECT_EQ(ring.stats().recorded, 0);
  EXPECT_EQ(ring.stats().dropped, 0);
  EXPECT_TRUE(ring.snapshot().empty());
  ring.record(2, ReqEventKind::kSubmitted);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  // Post-reset timestamps restart near the new epoch.
  EXPECT_LT(snap[0].t_us, 1e6);
}

TEST(RequestTraceRing, JsonSummaryListsNonZeroKinds) {
  RequestTraceRing ring(8);
  ring.record(0, ReqEventKind::kSubmitted);
  ring.record(0, ReqEventKind::kShed);
  const std::string j = request_trace_json(ring.stats());
  const json::Value v = json::parse(j);
  EXPECT_EQ(v.at("capacity").as_int(), 8);
  EXPECT_EQ(v.at("recorded").as_int(), 2);
  EXPECT_EQ(v.at("by_kind").at("submitted").as_int(), 1);
  EXPECT_EQ(v.at("by_kind").at("shed").as_int(), 1);
  // Zero kinds are omitted from the object.
  EXPECT_EQ(v.at("by_kind").get("completed"), nullptr);
}

// --- End-to-end lifecycle through a session ------------------------------

TEST(RequestTraceSession, CompletedRequestRecordsTheFullLifecycle) {
  Session session(Cluster{});
  const TensorF16 in = make_input(1, 15, 15, 3);
  SubmitOptions sub;
  std::int64_t id = -1;
  sub.trace_id = &id;
  sub.prio = 2;
  auto f = session.submit(max3x2(), PoolInputs{.in = &in}, sub);
  EXPECT_EQ(id, 0);  // ids start at 0 and are handed out before return
  f.get();
  session.drain();

  const auto evs = events_for(session.request_events(), id);
  // submitted -> admitted -> planned -> batched -> launched -> completed,
  // in that order.
  const ReqEventKind want[] = {
      ReqEventKind::kSubmitted, ReqEventKind::kAdmitted,
      ReqEventKind::kPlanned,   ReqEventKind::kBatched,
      ReqEventKind::kLaunched,  ReqEventKind::kCompleted};
  std::size_t at = 0;
  for (const ReqEvent& e : evs) {
    if (at < std::size(want) && e.kind == want[at]) at += 1;
  }
  EXPECT_EQ(at, std::size(want)) << "missing lifecycle transition";
  // The launch also lands on the VM stream.
  EXPECT_TRUE(has_kind(evs, ReqEventKind::kVmScheduled));
  // Payloads: kSubmitted carries the prio; the first launch is batch 0.
  for (const ReqEvent& e : evs) {
    if (e.kind == ReqEventKind::kSubmitted) {
      EXPECT_EQ(e.a, 2);
    }
    if (e.kind == ReqEventKind::kBatched) {
      EXPECT_EQ(e.a, 0);
      EXPECT_EQ(e.b, 1);
    }
    if (e.kind == ReqEventKind::kVmScheduled) {
      EXPECT_GT(e.b, e.a);
    }
  }
  // Stats surface mirrors the ring.
  const SessionStats s = session.stats();
  EXPECT_GE(s.request_trace.recorded, 6);
  EXPECT_EQ(s.request_trace.dropped, 0);
}

TEST(RequestTraceSession, TraceIdsAreMonotonicAcrossSubmitAndTrySubmit) {
  Session session(Cluster{});
  const TensorF16 in = make_input(1, 15, 15, 4);
  std::vector<std::future<kernels::PoolResult>> fs;
  std::int64_t prev = -1;
  for (int i = 0; i < 3; ++i) {
    SubmitOptions sub;
    std::int64_t id = -1;
    sub.trace_id = &id;
    fs.push_back(session.submit(max3x2(), PoolInputs{.in = &in}, sub));
    EXPECT_EQ(id, prev + 1);
    prev = id;
  }
  std::future<kernels::PoolResult> f;
  SubmitOptions sub;
  std::int64_t id = -1;
  sub.trace_id = &id;
  ASSERT_TRUE(session.try_submit(max3x2(), PoolInputs{.in = &in}, &f, sub));
  EXPECT_EQ(id, prev + 1);
  fs.push_back(std::move(f));
  session.drain();
  for (auto& fut : fs) fut.get();
}

TEST(RequestTraceSession, ExpiredRequestRecordsExpiry) {
  Session session(Cluster{});
  const TensorF16 in = make_input(1, 15, 15, 5);
  session.pause();
  SubmitOptions sub;
  std::int64_t id = -1;
  sub.trace_id = &id;
  sub.deadline_us = 1;  // lapses while the queue is paused
  auto f = session.submit(max3x2(), PoolInputs{.in = &in}, sub);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  session.resume();
  session.drain();
  EXPECT_THROW(f.get(), DeadlineExceeded);

  const auto evs = events_for(session.request_events(), id);
  EXPECT_TRUE(has_kind(evs, ReqEventKind::kSubmitted));
  EXPECT_TRUE(has_kind(evs, ReqEventKind::kExpired));
  EXPECT_FALSE(has_kind(evs, ReqEventKind::kLaunched));
  EXPECT_FALSE(has_kind(evs, ReqEventKind::kCompleted));
}

TEST(RequestTraceSession, ShedVictimRecordsShed) {
  SessionOptions opts;
  opts.queue_depth = 1;
  opts.overload = OverloadPolicy::kShedOldest;
  Session session(Cluster{}, opts);
  const TensorF16 in = make_input(1, 15, 15, 6);
  session.pause();
  std::int64_t first = -1, second = -1;
  SubmitOptions sub1;
  sub1.trace_id = &first;
  auto f1 = session.submit(max3x2(), PoolInputs{.in = &in}, sub1);
  SubmitOptions sub2;
  sub2.trace_id = &second;
  auto f2 = session.submit(max3x2(), PoolInputs{.in = &in}, sub2);
  session.resume();
  session.drain();
  EXPECT_THROW(f1.get(), Overloaded);
  f2.get();

  const auto all = session.request_events();
  EXPECT_TRUE(has_kind(events_for(all, first), ReqEventKind::kShed));
  EXPECT_TRUE(has_kind(events_for(all, second), ReqEventKind::kCompleted));
}

TEST(RequestTraceSession, RejectedRequestRecordsRejection) {
  SessionOptions opts;
  opts.queue_depth = 1;
  opts.overload = OverloadPolicy::kRejectNew;
  Session session(Cluster{}, opts);
  const TensorF16 in = make_input(1, 15, 15, 7);
  session.pause();
  std::int64_t first = -1, second = -1;
  SubmitOptions sub1;
  sub1.trace_id = &first;
  auto f1 = session.submit(max3x2(), PoolInputs{.in = &in}, sub1);
  SubmitOptions sub2;
  sub2.trace_id = &second;
  auto f2 = session.submit(max3x2(), PoolInputs{.in = &in}, sub2);
  session.resume();
  session.drain();
  f1.get();
  EXPECT_THROW(f2.get(), Overloaded);
  EXPECT_TRUE(has_kind(events_for(session.request_events(), second),
                       ReqEventKind::kRejected));
}

TEST(RequestTraceSession, ResetStatsClearsTheRing) {
  Session session(Cluster{});
  const TensorF16 in = make_input(1, 15, 15, 8);
  session.submit(max3x2(), PoolInputs{.in = &in}).get();
  session.drain();
  ASSERT_GT(session.stats().request_trace.recorded, 0);
  session.reset_stats();
  EXPECT_EQ(session.stats().request_trace.recorded, 0);
  EXPECT_TRUE(session.request_events().empty());
  // Ids keep counting -- they are identities, not statistics.
  std::int64_t id = -1;
  SubmitOptions sub;
  sub.trace_id = &id;
  session.submit(max3x2(), PoolInputs{.in = &in}, sub).get();
  session.drain();
  EXPECT_GT(id, 0);
  // Post-reset batch ids restart at 0 (re-aligned with the VM stream).
  for (const ReqEvent& e : session.request_events()) {
    if (e.kind == ReqEventKind::kBatched) {
      EXPECT_EQ(e.a, 0);
    }
  }
}

// --- Span building and the unified Chrome trace --------------------------

TEST(RequestSpans, ExecuteSpanSitsExactlyOnTheVmPlacement) {
  std::vector<ReqEvent> evs;
  auto push = [&](std::int64_t req, ReqEventKind k, double t, std::int64_t a,
                  std::int64_t b) {
    evs.push_back(ReqEvent{req, k, t, a, b});
  };
  // Request 0: queued 0..10us, launched at 12us, VM span [100, 250).
  push(0, ReqEventKind::kSubmitted, 0.0, 0, 0);
  push(0, ReqEventKind::kAdmitted, 10.0, 10, 0);
  push(0, ReqEventKind::kPlanned, 11.0, 1, 0);
  push(0, ReqEventKind::kBatched, 12.0, 0, 1);
  push(0, ReqEventKind::kLaunched, 12.0, 0, 1);
  push(0, ReqEventKind::kVmScheduled, 13.0, 100, 250);
  push(0, ReqEventKind::kCompleted, 40.0, 40, 0);

  const std::vector<HostSpan> spans = build_request_spans(evs);
  ASSERT_EQ(spans.size(), 3u);  // queued, batching, execute
  const HostSpan* exec = nullptr;
  const HostSpan* batching = nullptr;
  for (const HostSpan& s : spans) {
    if (s.name == "execute") exec = &s;
    if (s.name == "batching") batching = &s;
  }
  ASSERT_NE(exec, nullptr);
  ASSERT_NE(batching, nullptr);
  EXPECT_EQ(exec->start, 100);
  EXPECT_EQ(exec->end, 250);
  // Batching tiles exactly against the device span.
  EXPECT_EQ(batching->end, exec->start);
  EXPECT_NE(batching->args_json.find("\"plan_cache_hit\":true"),
            std::string::npos);
}

TEST(RequestSpans, FailureOutcomesRenderAsInstantEvents) {
  std::vector<ReqEvent> evs;
  evs.push_back(ReqEvent{3, ReqEventKind::kSubmitted, 0.0, 0, 0});
  evs.push_back(ReqEvent{3, ReqEventKind::kExpired, 25.0, 25, 0});
  const std::vector<HostSpan> spans = build_request_spans(evs);
  ASSERT_EQ(spans.size(), 2u);  // queued + terminal instant
  EXPECT_EQ(spans[0].name, "queued");
  EXPECT_TRUE(spans[1].instant);
  EXPECT_EQ(spans[1].name, "expired");
}

TEST(UnifiedTrace, ContainsHostSpansAndVmTracksInOneValidDocument) {
  SessionOptions opts;
  opts.vm_capture = true;
  Session session(Cluster{}, opts);
  const TensorF16 in = make_input(1, 15, 15, 9);
  std::vector<std::future<kernels::PoolResult>> fs;
  for (int i = 0; i < 3; ++i) {
    fs.push_back(session.submit(max3x2(), PoolInputs{.in = &in}));
  }
  session.drain();
  for (auto& f : fs) f.get();

  const std::string trace = session.unified_chrome_trace();
  const json::Value doc = json::parse(trace);
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  bool saw_serve_span = false, saw_vm_span = false, saw_host_process = false;
  std::int64_t last_counter_tiles = -1;
  std::int64_t last_counter_ts = -1;
  for (const json::Value& e : events) {
    const std::string ph = e.at("ph").as_string();
    const json::Value* cat = e.get("cat");
    if (ph == "X" && cat != nullptr && cat->as_string() == "serve") {
      saw_serve_span = true;
    }
    if (ph == "X" && cat != nullptr && cat->as_string() == "vm") {
      saw_vm_span = true;
    }
    if (ph == "M" && e.at("name").as_string() == "process_name" &&
        e.at("args").at("name").as_string() == "serve requests") {
      saw_host_process = true;
    }
    if (ph == "C" &&
        e.at("name").as_string() == "ub tiles in flight") {
      last_counter_tiles = e.at("args").at("tiles").as_int();
      last_counter_ts = e.at("ts").as_int();
    }
  }
  EXPECT_TRUE(saw_serve_span);
  EXPECT_TRUE(saw_vm_span);
  EXPECT_TRUE(saw_host_process);
  // The CI invariant: the final counter sample closes at zero, at the
  // stream makespan.
  EXPECT_EQ(last_counter_tiles, 0);
  EXPECT_EQ(last_counter_ts, session.stats().vm.makespan);
}

TEST(UnifiedTrace, HostOnlyTraceIsValidWithVmCaptureOff) {
  Session session(Cluster{});  // vm_capture off: no placements
  const TensorF16 in = make_input(1, 15, 15, 10);
  session.submit(max3x2(), PoolInputs{.in = &in}).get();
  session.drain();
  const std::string trace = session.unified_chrome_trace();
  const json::Value doc = json::parse(trace);
  bool saw_serve_span = false;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    const json::Value* cat = e.get("cat");
    if (e.at("ph").as_string() == "X" && cat != nullptr &&
        cat->as_string() == "serve") {
      saw_serve_span = true;
    }
  }
  EXPECT_TRUE(saw_serve_span);
}

TEST(RequestTraceSession, HistogramPercentilesCrossCheckAgainstExact) {
  // The in-session version of the CI gate: with every sample retained
  // (count <= kLatencySampleCap), histogram p50/p99 must land within 5%
  // of the exact-sample percentiles.
  Session session(Cluster{});
  const TensorF16 in = make_input(1, 15, 15, 11);
  std::vector<std::future<kernels::PoolResult>> fs;
  for (int i = 0; i < 24; ++i) {
    fs.push_back(session.submit(max3x2(), PoolInputs{.in = &in}));
  }
  session.drain();
  for (auto& f : fs) f.get();
  const SessionStats s = session.stats();
  ASSERT_EQ(s.latency_exact.count, s.latency.count);
  for (auto [hist, exact] :
       {std::pair{s.latency.p50, s.latency_exact.p50},
        std::pair{s.latency.p99, s.latency_exact.p99}}) {
    if (exact > 1.0) {
      EXPECT_LE(std::abs(hist - exact) / exact, 0.05)
          << "hist=" << hist << " exact=" << exact;
    }
  }
}
