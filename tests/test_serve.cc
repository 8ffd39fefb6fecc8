// serve::Session -- the batching request path must be invisible in the
// numerics: every future resolves to exactly what a lone run_pool call
// produces, whatever the batcher coalesced. Plus the bounded-queue
// contract (try_submit refuses, submit blocks), error routing through
// futures, trace parsing, and the Pipeline per-layer PoolOp override.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nets/pipeline.h"
#include "ref/pooling_ref.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "sim/metrics_registry.h"
#include "tensor/fractal.h"

namespace davinci::serve {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;
using kernels::PoolResult;

TensorF16 make_input(std::int64_t c1, std::int64_t h, std::int64_t w,
                     std::uint64_t seed) {
  TensorF16 t(Shape{1, c1, h, w, kC0});
  t.fill_random_ints(seed);
  return t;
}

void expect_same_tensor(const TensorF16& a, const TensorF16& b) {
  ASSERT_EQ(a.shape().to_string(), b.shape().to_string());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a.flat(i) == b.flat(i)) << "element " << i;
  }
}

TEST(ServeSession, CoalescedResultsBitIdenticalToLoneRuns) {
  SessionOptions opts;
  Session session(Cluster{}, opts);

  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const int kRequests = 6;
  std::vector<TensorF16> inputs;
  for (int r = 0; r < kRequests; ++r) {
    inputs.push_back(make_input(2, 35, 35, static_cast<std::uint64_t>(r + 1)));
  }

  // Pause so all requests land in one batching window.
  session.pause();
  std::vector<std::future<PoolResult>> futures;
  for (const TensorF16& in : inputs) {
    futures.push_back(session.submit(op, PoolInputs{.in = &in}));
  }
  session.resume();
  session.drain();

  // A lone device configured identically gives the ground truth.
  Device lone;
  lone.set_double_buffer(opts.double_buffer);
  for (int r = 0; r < kRequests; ++r) {
    PoolResult got = futures[static_cast<std::size_t>(r)].get();
    PoolResult want = kernels::run_pool(
        lone, op, PoolInputs{.in = &inputs[static_cast<std::size_t>(r)]});
    expect_same_tensor(got.out, want.out);
  }

  const SessionStats s = session.stats();
  EXPECT_EQ(s.submitted, kRequests);
  EXPECT_EQ(s.completed, kRequests);
  EXPECT_EQ(s.failed, 0);
  EXPECT_LT(s.launches, kRequests);  // something actually coalesced
  EXPECT_GE(s.batches, 1);
  EXPECT_GE(s.max_batch, 2u);
}

TEST(ServeSession, MixedGeometriesStaySeparateAndCorrect) {
  Session session(Cluster{});
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 small = make_input(2, 21, 21, 3);
  const TensorF16 large = make_input(4, 35, 35, 4);

  session.pause();
  auto f_small = session.submit(op, PoolInputs{.in = &small});
  auto f_large = session.submit(op, PoolInputs{.in = &large});
  session.resume();
  session.drain();

  Device lone;
  lone.set_double_buffer(true);
  expect_same_tensor(f_small.get().out,
                     kernels::run_pool(lone, op, {.in = &small}).out);
  expect_same_tensor(f_large.get().out,
                     kernels::run_pool(lone, op, {.in = &large}).out);
  EXPECT_EQ(session.stats().launches, 2);  // different shapes never merge
}

TEST(ServeSession, BackwardAndMaskKindsServeCorrectly) {
  Session session(Cluster{});
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t h = 19;
  const TensorF16 in = make_input(2, h, h, 7);
  const TensorF16 mask = ref::maxpool_argmax_mask(in, w);
  TensorF16 grad(Shape{1, 2, w.out_h(h), w.out_w(h), kC0});
  grad.fill_random_ints(9, 0, 5);

  const PoolOp mask_op{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
                       .fwd = akg::PoolImpl::kIm2col};
  const PoolOp bwd_op{.kind = PoolOpKind::kMaxBwd, .window = w,
                      .merge = kernels::MergeImpl::kCol2im};
  const PoolInputs bwd_in{.mask = &mask, .grad = &grad, .ih = h, .iw = h};

  auto f_mask = session.submit(mask_op, PoolInputs{.in = &in});
  auto f_bwd = session.submit(bwd_op, bwd_in);
  session.drain();

  Device lone;
  lone.set_double_buffer(true);
  PoolResult got_mask = f_mask.get();
  PoolResult want_mask = kernels::run_pool(lone, mask_op, {.in = &in});
  expect_same_tensor(got_mask.out, want_mask.out);
  expect_same_tensor(got_mask.mask, want_mask.mask);
  expect_same_tensor(f_bwd.get().grad_in,
                     kernels::run_pool(lone, bwd_op, bwd_in).grad_in);
}

TEST(ServeSession, TrySubmitRefusesWhenQueueFull) {
  SessionOptions opts;
  opts.queue_depth = 2;
  Session session(Cluster{}, opts);
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(1, 15, 15, 1);

  session.pause();  // nothing drains: the queue genuinely fills
  std::vector<std::future<PoolResult>> futures;
  for (int i = 0; i < 2; ++i) {
    std::future<PoolResult> f;
    ASSERT_TRUE(session.try_submit(op, PoolInputs{.in = &in}, &f));
    futures.push_back(std::move(f));
  }
  std::future<PoolResult> rejected;
  EXPECT_FALSE(session.try_submit(op, PoolInputs{.in = &in}, &rejected));

  session.resume();
  session.drain();
  for (auto& f : futures) EXPECT_GT(f.get().out.size(), 0);

  // Space freed: admission works again.
  std::future<PoolResult> f;
  EXPECT_TRUE(session.try_submit(op, PoolInputs{.in = &in}, &f));
  session.drain();
  EXPECT_GT(f.get().out.size(), 0);
  EXPECT_EQ(session.stats().peak_queue_depth, 2);
}

TEST(ServeSession, PlanCacheHitsAcrossWaves) {
  Session session(Cluster{});
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(2, 35, 35, 5);
  for (int wave = 0; wave < 3; ++wave) {
    auto f = session.submit(op, PoolInputs{.in = &in});
    session.drain();
    f.get();
  }
  const SessionStats s = session.stats();
  EXPECT_EQ(s.plan_cache.misses, 1);  // planned once...
  EXPECT_GE(s.plan_cache.hits, 2);    // ...replayed ever after
  EXPECT_EQ(s.plan_cache_size, 1u);
  EXPECT_GT(s.plan_cache.hit_rate(), 0.5);
}

TEST(ServeSession, KernelErrorsSurfaceThroughFutureNotTerminate) {
  Session session(Cluster{});
  // Rank-4 input: the admission screen's contract check must reject it,
  // fail the future, and leave the worker alive for the next (valid)
  // request.
  TensorF16 bad(Shape{1, 2, 9, 9});
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  auto f_bad = session.submit(op, PoolInputs{.in = &bad});
  session.drain();
  EXPECT_THROW(f_bad.get(), Error);
  EXPECT_EQ(session.stats().failed, 1);

  const TensorF16 good = make_input(1, 15, 15, 2);
  auto f_good = session.submit(op, PoolInputs{.in = &good});
  session.drain();
  EXPECT_GT(f_good.get().out.size(), 0);
  EXPECT_EQ(session.stats().completed, 1);
}

TEST(ServeSession, RejectsWhatABareRunPoolRejects) {
  // The mask-producing forward has only direct and im2col lowerings. A
  // bare run_pool refuses impl=expansion; the session's screen must fail
  // the request with the same Error rather than serve it.
  const PoolOp op{.kind = PoolOpKind::kMaxMaskFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kExpansion};
  const TensorF16 in = make_input(2, 19, 19, 11);
  Device lone;
  std::string bare;
  try {
    kernels::run_pool(lone, op, PoolInputs{.in = &in});
  } catch (const Error& e) {
    bare = e.what();
  }
  ASSERT_FALSE(bare.empty()) << "a bare run_pool accepted " << op.to_string();

  Session session(Cluster{});
  auto f = session.submit(op, PoolInputs{.in = &in});
  session.drain();
  try {
    f.get();
    ADD_FAILURE() << "the session served " << op.to_string();
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), bare);
  }
  EXPECT_EQ(session.stats().failed, 1);
  EXPECT_EQ(session.stats().launches, 0);
}

TEST(ServeSession, ServeJsonLandsInMetricsRegistryAsCurrentSchema) {
  Session session(Cluster{});
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(1, 15, 15, 3);
  session.submit(op, PoolInputs{.in = &in}).get();
  session.drain();

  MetricsRegistry reg;
  reg.set_serve(session.serve_json());
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema_version\":" +
                      std::to_string(MetricsRegistry::kSchemaVersion)),
            std::string::npos);
  // The v4 host-phase buckets are per-entry fields; the host_ns bucket
  // invariant itself is covered in test_metrics.cc. The v5 "vm" object
  // and its stream buckets are covered in test_vm.cc.
  EXPECT_NE(json.find("\"vm\""), std::string::npos);
  EXPECT_NE(json.find("\"serve\""), std::string::npos);
  EXPECT_NE(json.find("\"plan_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\""), std::string::npos);
  // The v3 robustness surface.
  EXPECT_NE(json.find("\"expired\""), std::string::npos);
  EXPECT_NE(json.find("\"shed\""), std::string::npos);
  EXPECT_NE(json.find("\"overload_policy\":\"block\""), std::string::npos);
  EXPECT_NE(json.find("\"resilience\""), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_alarms\""), std::string::npos);
  // The v6 surface: p999 + histogram + exact cross-check inside the
  // latency objects, queue depth, and the request-trace ring counters.
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NE(json.find("\"hist\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"exact\""), std::string::npos);
  EXPECT_NE(json.find("\"complete\":true"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"request_trace\""), std::string::npos);
  EXPECT_NE(json.find("\"by_kind\""), std::string::npos);
  // The v7 surface: cluster topology, per-device rows and the link
  // roofline (deep coverage lives in test_cluster.cc).
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"placement\":\"data\""), std::string::npos);
  EXPECT_NE(json.find("\"per_device\""), std::string::npos);
  EXPECT_NE(json.find("\"redistribution\""), std::string::npos);
}

// --- Deadlines -----------------------------------------------------------

TEST(ServeDeadline, ExpiredRequestFailsWithoutDeviceLaunch) {
  Session session(Cluster{});
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(1, 15, 15, 1);

  session.pause();  // the deadline lapses while the request sits queued
  auto f = session.submit(op, PoolInputs{.in = &in},
                          SubmitOptions{.deadline_us = 1000});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  session.resume();
  session.drain();

  EXPECT_THROW(f.get(), DeadlineExceeded);
  const SessionStats s = session.stats();
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.launches, 0);  // the device never ran
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.failed, 0);  // expiry is its own counter
}

TEST(ServeDeadline, ExpiredRequestNeverFailsItsBatchmates) {
  Session session(Cluster{});
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 a = make_input(2, 35, 35, 1);
  const TensorF16 b = make_input(2, 35, 35, 2);
  const TensorF16 doomed_in = make_input(2, 35, 35, 3);

  session.pause();  // same geometry: all three coalesce into one batch
  auto f_a = session.submit(op, PoolInputs{.in = &a});
  auto doomed = session.submit(op, PoolInputs{.in = &doomed_in},
                               SubmitOptions{.deadline_us = 1000});
  auto f_b = session.submit(op, PoolInputs{.in = &b});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  session.resume();
  session.drain();

  EXPECT_THROW(doomed.get(), DeadlineExceeded);
  Device lone;
  lone.set_double_buffer(true);
  expect_same_tensor(f_a.get().out,
                     kernels::run_pool(lone, op, {.in = &a}).out);
  expect_same_tensor(f_b.get().out,
                     kernels::run_pool(lone, op, {.in = &b}).out);
  const SessionStats s = session.stats();
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.failed, 0);
}

TEST(ServeDeadline, GenerousDeadlineCompletesNormally) {
  Session session(Cluster{});
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(1, 15, 15, 4);
  auto f = session.submit(op, PoolInputs{.in = &in},
                          SubmitOptions{.deadline_us = 60'000'000});
  session.drain();
  EXPECT_GT(f.get().out.size(), 0);
  EXPECT_EQ(session.stats().expired, 0);
}

// --- Overload policies ---------------------------------------------------

TEST(ServeOverload, RejectNewFailsTheNewRequest) {
  SessionOptions opts;
  opts.queue_depth = 2;
  opts.overload = OverloadPolicy::kRejectNew;
  Session session(Cluster{}, opts);
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(1, 15, 15, 1);

  session.pause();
  auto f1 = session.submit(op, PoolInputs{.in = &in});
  auto f2 = session.submit(op, PoolInputs{.in = &in});
  auto f3 = session.submit(op, PoolInputs{.in = &in});  // queue is full
  EXPECT_THROW(f3.get(), Overloaded);  // resolved immediately, no blocking

  session.resume();
  session.drain();
  EXPECT_GT(f1.get().out.size(), 0);
  EXPECT_GT(f2.get().out.size(), 0);
  const SessionStats s = session.stats();
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.submitted, 3);
}

TEST(ServeOverload, ShedOldestDropsTheOldestLowestPriority) {
  SessionOptions opts;
  opts.queue_depth = 2;
  opts.overload = OverloadPolicy::kShedOldest;
  Session session(Cluster{}, opts);
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(1, 15, 15, 1);

  session.pause();
  // Oldest but high priority: survives. Second oldest (prio 0) is shed.
  auto keep = session.submit(op, PoolInputs{.in = &in},
                             SubmitOptions{.prio = 1});
  auto victim = session.submit(op, PoolInputs{.in = &in});
  auto newcomer = session.submit(op, PoolInputs{.in = &in});  // full: sheds
  EXPECT_THROW(victim.get(), Overloaded);

  session.resume();
  session.drain();
  EXPECT_GT(keep.get().out.size(), 0);
  EXPECT_GT(newcomer.get().out.size(), 0);
  const SessionStats s = session.stats();
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.completed, 2);
}

// --- Fault tolerance -----------------------------------------------------

// All cores poisoned for block ids >= 4: any launch spanning more than 4
// (N, C1) blocks dies however it is retried (every redistribution target
// dies too), while launches of <= 4 blocks run fault-free. A fat request
// (6 blocks) coalesced with skinny ones (2 blocks each) therefore fails
// the whole batch -- until bisection isolates it.
TEST(ServeResilience, BisectionIsolatesThePoisonedRequest) {
  SessionOptions opts;
  ResilienceOptions res;
  for (int c = 0; c < 32; ++c) {
    res.plan.core_failures.push_back(CoreFailTrigger{c, 4});
  }
  opts.resilience = res;
  Session session(Cluster{}, opts);
  ASSERT_EQ(session.cluster().device(0).num_cores(), 32);

  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 s1 = make_input(2, 35, 35, 1);
  const TensorF16 s2 = make_input(2, 35, 35, 2);
  const TensorF16 s3 = make_input(2, 35, 35, 3);
  TensorF16 fat(Shape{3, 2, 35, 35, kC0});  // 6 blocks: poisoned
  fat.fill_random_ints(4);

  session.pause();
  auto f1 = session.submit(op, PoolInputs{.in = &s1});
  auto f_fat = session.submit(op, PoolInputs{.in = &fat});
  auto f2 = session.submit(op, PoolInputs{.in = &s2});
  auto f3 = session.submit(op, PoolInputs{.in = &s3});
  session.resume();
  session.drain();

  // The fat request fails alone; its batchmates complete bit-exactly.
  EXPECT_THROW(f_fat.get(), RetryExhausted);
  Device lone;
  lone.set_double_buffer(true);
  expect_same_tensor(f1.get().out,
                     kernels::run_pool(lone, op, {.in = &s1}).out);
  expect_same_tensor(f2.get().out,
                     kernels::run_pool(lone, op, {.in = &s2}).out);
  expect_same_tensor(f3.get().out,
                     kernels::run_pool(lone, op, {.in = &s3}).out);

  const SessionStats s = session.stats();
  EXPECT_EQ(s.completed, 3);
  EXPECT_EQ(s.failed, 1);
  EXPECT_GE(s.bisections, 2);  // full batch split, then the fat half again
  EXPECT_EQ(s.poisoned_requests, 1);
  EXPECT_GE(s.launch_failures, 2);
}

TEST(ServeResilience, QuarantineShrinksTheBatchCapAndCountsDegraded) {
  SessionOptions opts;
  ResilienceOptions res;
  res.plan = FaultPlan::parse("core_fail@2", 7);  // core 2 dies on block 2
  opts.resilience = res;
  Session session(Cluster{}, opts);

  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  TensorF16 in(Shape{2, 2, 35, 35, kC0});  // 4 blocks: core 2 gets one
  in.fill_random_ints(5);
  auto f = session.submit(op, PoolInputs{.in = &in});
  session.drain();

  // The launch survives by quarantining core 2 and redistributing; the
  // result is still bit-identical to a fault-free run.
  Device lone;
  lone.set_double_buffer(true);
  expect_same_tensor(f.get().out,
                     kernels::run_pool(lone, op, {.in = &in}).out);
  const SessionStats s = session.stats();
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.quarantined_cores, 1);
  EXPECT_GE(s.degraded_launches, 1);
  EXPECT_GE(s.faults.cores_quarantined, 1);
  EXPECT_GE(s.faults.blocks_redispatched, 1);
}

// --- Watchdog and bounded drain ------------------------------------------

TEST(ServeWatchdog, SlowLaunchRaisesAnAlarm) {
  SessionOptions opts;
  opts.watchdog_timeout_us = 1;  // every real launch overruns this
  Session session(Cluster{}, opts);
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(4, 71, 71, 6);
  auto f = session.submit(op, PoolInputs{.in = &in});
  session.drain();
  EXPECT_GT(f.get().out.size(), 0);
  EXPECT_GE(session.stats().watchdog_alarms, 1);
}

TEST(ServeDrain, BoundedDrainTimesOutThenSucceeds) {
  Session session(Cluster{});
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  // Enough queued work that the worker cannot possibly retire all of it
  // in the submit-to-drain gap (the host fast path made a single small
  // launch quick enough to lose that race): the bounded drain reports the
  // session still busy instead of blocking forever.
  const TensorF16 in = make_input(32, 95, 95, 7);
  std::vector<std::future<PoolResult>> fs;
  for (int i = 0; i < 8; ++i) {
    fs.push_back(session.submit(op, PoolInputs{.in = &in}));
  }
  EXPECT_FALSE(session.drain(std::chrono::microseconds(1)));
  EXPECT_TRUE(session.drain(std::chrono::microseconds(60'000'000)));
  auto& f = fs.front();
  EXPECT_GT(f.get().out.size(), 0);
}

// --- Teardown and concurrency --------------------------------------------

TEST(ServeTeardown, QueuedRequestsAreCancelledAndEveryFutureResolves) {
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(1, 15, 15, 1);
  std::vector<std::future<PoolResult>> futures;
  {
    Session session(Cluster{});
    session.pause();  // everything stays queued: destruction must cancel
    for (int i = 0; i < 6; ++i) {
      futures.push_back(session.submit(op, PoolInputs{.in = &in}));
    }
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_THROW(f.get(), Cancelled);
  }
}

TEST(ServeTeardown, InFlightWorkCompletesAndEveryFutureResolves) {
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(1, 15, 15, 2);
  std::vector<std::future<PoolResult>> futures;
  {
    Session session(Cluster{});  // not paused: the worker races the destructor
    for (int i = 0; i < 8; ++i) {
      futures.push_back(session.submit(op, PoolInputs{.in = &in}));
    }
  }
  int completed = 0, cancelled = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    try {
      EXPECT_GT(f.get().out.size(), 0);
      completed += 1;
    } catch (const Cancelled&) {
      cancelled += 1;
    }
  }
  EXPECT_EQ(completed + cancelled, 8);  // nothing lost, nothing hung
}

TEST(ServeStress, ManyProducersMixingSubmitAndTrySubmit) {
  SessionOptions opts;
  opts.queue_depth = 4;  // small: the queue genuinely fills under load
  Session session(Cluster{}, opts);
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const TensorF16 in = make_input(1, 15, 15, 3);

  constexpr int kBlockingProducers = 3;
  constexpr int kTryProducers = 2;
  constexpr int kPerProducer = 16;
  std::mutex collect_mu;
  std::vector<std::future<PoolResult>> futures;
  std::atomic<int> refused{0};

  std::vector<std::thread> producers;
  for (int t = 0; t < kBlockingProducers; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto f = session.submit(op, PoolInputs{.in = &in});
        std::lock_guard<std::mutex> lock(collect_mu);
        futures.push_back(std::move(f));
      }
    });
  }
  for (int t = 0; t < kTryProducers; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::future<PoolResult> f;
        if (session.try_submit(op, PoolInputs{.in = &in}, &f)) {
          std::lock_guard<std::mutex> lock(collect_mu);
          futures.push_back(std::move(f));
        } else {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  session.drain();

  for (auto& f : futures) EXPECT_GT(f.get().out.size(), 0);
  const SessionStats s = session.stats();
  EXPECT_EQ(s.completed, static_cast<std::int64_t>(futures.size()));
  EXPECT_EQ(s.completed + refused.load(),
            kBlockingProducers * kPerProducer + kTryProducers * kPerProducer);
}

TEST(ServeTrace, ParsesOpsGeometriesAndRepeats) {
  const auto entries = parse_trace(
      "# comment line\n"
      "op=maxpool n=2 c1=4 ih=35 iw=35 k=3 s=2 impl=im2col x=3\n"
      "\n"
      "op=maxpool_bwd c1=2 ih=19 iw=19 k=3 s=2 merge=col2im\n"
      "op=global_avgpool c1=4 ih=8 iw=8\n");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].op.kind, PoolOpKind::kMaxFwd);
  EXPECT_EQ(entries[0].n, 2);
  EXPECT_EQ(entries[0].repeat, 3);
  EXPECT_EQ(entries[0].op.fwd, akg::PoolImpl::kIm2col);
  EXPECT_EQ(entries[1].op.kind, PoolOpKind::kMaxBwd);
  EXPECT_EQ(entries[1].op.merge, kernels::MergeImpl::kCol2im);
  EXPECT_EQ(entries[2].op.kind, PoolOpKind::kGlobalAvg);

  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 bogus=1\n"), Error);
  EXPECT_THROW(parse_trace("n=1 ih=9 iw=9\n"), Error);  // missing op=
  EXPECT_THROW(parse_trace("op=maxpool k=3 s=2\n"), Error);  // no geometry
}

TEST(ServeTrace, DeadlineAndPriorityFieldsParse) {
  const auto entries = parse_trace(
      "op=maxpool c1=2 ih=21 iw=21 k=3 s=2 deadline_us=5000 prio=2\n"
      "op=avgpool c1=2 ih=21 iw=21 k=3 s=2\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].deadline_us, 5000);
  EXPECT_EQ(entries[0].prio, 2);
  EXPECT_EQ(entries[1].deadline_us, 0);  // optional: defaults apply
  EXPECT_EQ(entries[1].prio, 0);

  // Malformed values and a negative budget are errors.
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 deadline_us=soon\n"),
               Error);
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 deadline_us=-1\n"),
               Error);
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 prio=high\n"),
               Error);
}

TEST(ServeTrace, ShardFieldParses) {
  const auto entries = parse_trace(
      "op=maxpool c1=2 ih=21 iw=21 k=3 s=2 shard=3\n"
      "op=avgpool c1=2 ih=21 iw=21 k=3 s=2\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].shard, 3);
  EXPECT_EQ(entries[1].shard, -1);  // optional: auto placement

  // Malformed values and a negative pin are errors (the device-count
  // upper bound is enforced by the session, not the parser).
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 shard=first\n"),
               Error);
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 shard=-1\n"),
               Error);
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 shard=-7\n"),
               Error);
}

TEST(ServeTrace, DuplicateAndUnknownKeysAreErrors) {
  // A key repeated on one line is ambiguous -- reject, don't last-wins.
  EXPECT_THROW(parse_trace("op=maxpool op=avgpool ih=9 iw=9 k=3 s=2\n"),
               Error);
  EXPECT_THROW(parse_trace("op=maxpool ih=9 ih=11 iw=9 k=3 s=2\n"), Error);
  EXPECT_THROW(
      parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 deadline_us=1 deadline_us=2\n"),
      Error);
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 shard=0 shard=1\n"),
               Error);
  // Unknown keys stay an error (no silent typo tolerance).
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 deadline=5\n"),
               Error);
}

TEST(ServeTrace, TruncatedLinesAreErrors) {
  // A line cut mid-token must not silently drop the fragment.
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=\n"), Error);  // cut value
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw\n"), Error);   // cut token
  EXPECT_THROW(parse_trace("op=\n"), Error);                  // empty value
  EXPECT_THROW(parse_trace("=3\n"), Error);                   // empty key
  // A file truncated without its final newline still parses the tokens
  // it has -- and still rejects the dangling fragment.
  EXPECT_THROW(parse_trace("op=maxpool ih=9 iw=9 k=3 s=2 x"), Error);
  const auto ok = parse_trace("op=maxpool ih=9 iw=9 k=3 s=2");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].ih, 9);
}

TEST(ServeTrace, ToLineRoundTripsThroughParse) {
  const auto entries = parse_trace(
      "op=maxpool n=2 c1=4 ih=35 iw=35 kh=3 kw=2 sh=2 sw=1 pt=1 pb=0 pl=1 "
      "pr=0 impl=im2col x=3 deadline_us=500 prio=2 shard=1\n"
      "op=avgpool c1=2 ih=21 iw=21 k=3 s=2 p=1 impl=expansion\n"
      "op=maxpool_bwd c1=2 ih=19 iw=19 k=3 s=2 merge=col2im\n"
      "op=avgpool_bwd c1=2 ih=19 iw=19 k=2 s=2 merge=vadd\n"
      "op=global_avgpool c1=4 ih=8 iw=8\n");
  std::string text;
  for (const auto& e : entries) text += to_line(e) + "\n";
  const auto reparsed = parse_trace(text);
  ASSERT_EQ(reparsed.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& a = entries[i];
    const auto& b = reparsed[i];
    EXPECT_EQ(a.op.kind, b.op.kind) << "line " << i;
    EXPECT_EQ(a.op.fwd, b.op.fwd) << "line " << i;
    EXPECT_EQ(a.op.merge, b.op.merge) << "line " << i;
    EXPECT_EQ(a.op.window.kh, b.op.window.kh) << "line " << i;
    EXPECT_EQ(a.op.window.kw, b.op.window.kw) << "line " << i;
    EXPECT_EQ(a.op.window.sh, b.op.window.sh) << "line " << i;
    EXPECT_EQ(a.op.window.sw, b.op.window.sw) << "line " << i;
    EXPECT_EQ(a.op.window.pt, b.op.window.pt) << "line " << i;
    EXPECT_EQ(a.op.window.pb, b.op.window.pb) << "line " << i;
    EXPECT_EQ(a.op.window.pl, b.op.window.pl) << "line " << i;
    EXPECT_EQ(a.op.window.pr, b.op.window.pr) << "line " << i;
    EXPECT_EQ(a.n, b.n) << "line " << i;
    EXPECT_EQ(a.c1, b.c1) << "line " << i;
    EXPECT_EQ(a.ih, b.ih) << "line " << i;
    EXPECT_EQ(a.iw, b.iw) << "line " << i;
    EXPECT_EQ(a.repeat, b.repeat) << "line " << i;
    EXPECT_EQ(a.deadline_us, b.deadline_us) << "line " << i;
    EXPECT_EQ(a.prio, b.prio) << "line " << i;
    EXPECT_EQ(a.shard, b.shard) << "line " << i;
  }
}

TEST(ServeTrace, MaterializedRequestsServeEndToEnd) {
  const auto entries = parse_trace(
      "op=maxpool c1=2 ih=21 iw=21 k=3 s=2 impl=auto\n"
      "op=avgpool_bwd c1=2 ih=19 iw=19 k=3 s=2 merge=vadd\n");
  Session session(Cluster{});
  std::vector<MaterializedRequest> reqs;
  std::vector<std::future<PoolResult>> futures;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    reqs.push_back(materialize(entries[i], /*seed=*/i + 1));
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    futures.push_back(session.submit(entries[i].op, reqs[i].inputs()));
  }
  session.drain();
  EXPECT_GT(futures[0].get().out.size(), 0);
  EXPECT_GT(futures[1].get().grad_in.size(), 0);
}

// The Pipeline per-layer override: a layer with an explicit PoolOp runs
// that exact descriptor regardless of the stack choice.
TEST(PipelineOverride, PerLayerPoolOpWinsOverStack) {
  const std::int64_t c1 = 2, h = 21;
  TensorF16 in(Shape{1, c1, h, h, kC0});
  in.fill_random_ints(13);
  const Window2d w = Window2d::pool(3, 2);

  nets::Pipeline plain;
  plain.maxpool(w);
  nets::Pipeline overridden;
  overridden.maxpool(kernels::PoolOp{.kind = kernels::PoolOpKind::kMaxFwd,
                                     .window = w,
                                     .fwd = akg::PoolImpl::kIm2col});

  Device d1, d2;
  // Standard stack would lower direct; the override pins im2col. Cycle
  // counts must match the accelerated stack exactly.
  const auto want = plain.run(d1, in, nets::PoolingStack::kAccelerated);
  const auto got = overridden.run(d2, in, nets::PoolingStack::kStandard);
  ASSERT_EQ(got.layers.size(), 1u);
  EXPECT_EQ(got.layers[0].run.device_cycles,
            want.layers[0].run.device_cycles);
  expect_same_tensor(got.out, want.out);
}

TEST(PipelineOverride, MismatchedKindIsRejected) {
  nets::Pipeline p;
  EXPECT_THROW(p.maxpool(kernels::PoolOp{.kind = kernels::PoolOpKind::kAvgFwd,
                                         .window = Window2d::pool(3, 2)}),
               Error);
}

}  // namespace
}  // namespace davinci::serve
