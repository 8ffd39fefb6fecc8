// serve::Cluster -- the placement router must be invisible in the
// numerics: every launch sharded over N (data parallel) or C1 (model
// parallel) produces bit-identical tensors to a lone single-device run,
// with VM streams on or off, with faults injected on one device, and for
// batch members whose rows straddle shard boundaries. The redistribution
// accounting must match the analytic slice volume exactly, every shard
// must run on its members' tensors in place (no staging copy), a batch
// whose members differ beyond N must throw before anything runs, and the
// Session's placement hints must route (and fail) per-request under the
// right block cap. A request that breaks the input contract fails alone.
// The davinci_prof render must name every counter the session's
// serve_json() writes.
#include <gtest/gtest.h>

#include <cctype>
#include <future>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "ref/pooling_ref.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "sim/fault.h"
#include "sim/metrics_registry.h"
#include "sim/prof_report.h"
#include "tensor/arena.h"
#include "tensor/fractal.h"

namespace davinci::serve {
namespace {

using kernels::PoolInputs;
using kernels::PoolOp;
using kernels::PoolOpKind;
using kernels::PoolResult;

void expect_same_tensor(const TensorF16& a, const TensorF16& b) {
  ASSERT_EQ(a.shape().to_string(), b.shape().to_string());
  if (a.shape().rank() == 0) return;  // absent tensor: no data to compare
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a.flat(i) == b.flat(i)) << "element " << i;
  }
}

void expect_same_result(const PoolResult& got, const PoolResult& want) {
  expect_same_tensor(got.out, want.out);
  expect_same_tensor(got.mask, want.mask);
  expect_same_tensor(got.grad_in, want.grad_in);
}

TensorF16 random_tensor(Shape shape, std::uint64_t seed) {
  TensorF16 t(shape);
  t.fill_random_ints(seed);
  return t;
}

// Poisons the process-wide arena for the scope: an output block that the
// shard path fails to write (or to zero-fill) reads back as 0xA5 garbage.
struct PoisonedArena {
  PoisonedArena() { TensorArena::global().set_poison(true); }
  ~PoisonedArena() { TensorArena::global().set_poison(false); }
};

// A mixed trace covering every kind the cluster must shard: forward max /
// avg with different lowerings, the mask variant, both backward merges,
// and the global head. N and C1 are deliberately not divisible by the
// device counts used below, so uneven shards are always exercised.
constexpr const char* kMixedTrace =
    "op=maxpool n=5 c1=3 ih=21 iw=21 k=3 s=2 impl=im2col x=3\n"
    "op=avgpool n=2 c1=5 ih=21 iw=21 k=3 s=2 impl=direct\n"
    "op=maxpool_mask n=3 c1=2 ih=19 iw=19 k=3 s=2 impl=im2col\n"
    "op=maxpool_bwd n=4 c1=3 ih=19 iw=19 k=3 s=2 merge=col2im x=2\n"
    "op=avgpool_bwd n=2 c1=4 ih=19 iw=19 k=2 s=2 merge=vadd\n"
    "op=global_avgpool n=6 c1=4 ih=8 iw=8\n";

// Replays `entries` through a Session owning `cluster` (all requests in
// one paused admission window, so coalescing is deterministic) and
// returns each request's result in submission order.
std::vector<PoolResult> replay(Cluster cluster,
                               const std::vector<TraceEntry>& entries,
                               SessionOptions opts,
                               SessionStats* stats_out = nullptr) {
  Session session(std::move(cluster), opts);
  std::vector<MaterializedRequest> requests;
  std::vector<const TraceEntry*> lines;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (int r = 0; r < entries[i].repeat; ++r) {
      requests.push_back(
          materialize(entries[i], i * 1000 + static_cast<std::uint64_t>(r)));
      lines.push_back(&entries[i]);
    }
  }
  session.pause();
  std::vector<std::future<PoolResult>> futures;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    futures.push_back(session.submit(lines[r]->op, requests[r].inputs()));
  }
  session.resume();
  session.drain();
  std::vector<PoolResult> results;
  for (auto& f : futures) results.push_back(f.get());
  if (stats_out != nullptr) *stats_out = session.stats();
  return results;
}

TEST(Cluster, OneDeviceIsIdentity) {
  Cluster cluster;
  const TensorF16 in = [&] {
    TensorF16 t(Shape{2, 3, 21, 21, kC0});
    t.fill_random_ints(1);
    return t;
  }();
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  const Cluster::Launch lr = cluster.run_pool(op, PoolInputs{.in = &in});

  Device lone;
  lone.set_double_buffer(cluster.device(0).double_buffer());
  const PoolResult want = kernels::run_pool(lone, op, PoolInputs{.in = &in});
  expect_same_result(lr.result, want);
  // Identity extends to the cycle model: no copies, no link charges.
  EXPECT_EQ(lr.result.run.device_cycles, want.run.device_cycles);
  const Cluster::Stats s = cluster.stats();
  EXPECT_EQ(s.launches, 1);
  EXPECT_EQ(s.sharded_launches, 0);
  EXPECT_EQ(s.devices[0].launches, 1);
  EXPECT_EQ(s.redistribution_bytes, 0);
  EXPECT_EQ(s.redistribution_cycles, 0);
  EXPECT_EQ(s.link_busy_cycles, 0);
}

TEST(Cluster, ShardedLaunchesBitIdenticalBothPlacements) {
  const TensorF16 in = [&] {
    TensorF16 t(Shape{5, 3, 21, 21, kC0});
    t.fill_random_ints(2);
    return t;
  }();
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  Device lone;
  lone.set_double_buffer(true);
  const PoolResult want = kernels::run_pool(lone, op, PoolInputs{.in = &in});

  for (const Placement p : {Placement::kData, Placement::kModel}) {
    Cluster cluster(ClusterOptions{.devices = 3, .placement = p});
    const Cluster::Launch lr = cluster.run_pool(op, PoolInputs{.in = &in});
    SCOPED_TRACE(to_string(p));
    expect_same_result(lr.result, want);
    const Cluster::Stats s = cluster.stats();
    EXPECT_EQ(s.sharded_launches, 1);
    EXPECT_GT(s.redistribution_bytes, 0);
    // Work lands on every device, one shard each: blocks sum to the full
    // N x C1 grid.
    std::int64_t blocks = 0;
    for (const Cluster::DeviceStats& d : s.devices) {
      EXPECT_EQ(d.launches, 1);
      EXPECT_GT(d.blocks, 0);
      blocks += d.blocks;
    }
    EXPECT_EQ(blocks, 5 * 3);
  }
}

TEST(Cluster, RedistributionBytesMatchAnalyticSliceVolume) {
  // Model parallel over C1: shard d's transfer volume is its C1-slice of
  // the input crossing 0->d plus its slice of the output crossing d->0,
  // both fp16 NC1HWC0 volumes. Device 0's chunk is local: never counted.
  const std::int64_t n = 2, c1 = 5, ih = 21, iw = 21;
  const int devices = 3;
  const TensorF16 in = [&] {
    TensorF16 t(Shape{n, c1, ih, iw, kC0});
    t.fill_random_ints(3);
    return t;
  }();
  const Window2d w = Window2d::pool(3, 2);
  const PoolOp op{.kind = PoolOpKind::kMaxFwd, .window = w,
                  .fwd = akg::PoolImpl::kIm2col};
  Cluster cluster(
      ClusterOptions{.devices = devices, .placement = Placement::kModel});
  (void)cluster.run_pool(op, PoolInputs{.in = &in});

  const std::int64_t oh = w.out_h(ih), ow = w.out_w(iw);
  const std::int64_t base = c1 / devices, rem = c1 % devices;
  std::int64_t expected = 0;
  std::vector<std::int64_t> in_bytes(devices, 0), out_bytes(devices, 0);
  for (int d = 1; d < devices; ++d) {
    const std::int64_t len = base + (d < rem ? 1 : 0);
    in_bytes[d] = n * len * ih * iw * kC0 * 2;
    out_bytes[d] = n * len * oh * ow * kC0 * 2;
    expected += in_bytes[d] + out_bytes[d];
  }
  const Cluster::Stats s = cluster.stats();
  EXPECT_EQ(s.redistribution_bytes, expected);
  // Per-link attribution: input slices ride 0->d, output slices d->0.
  for (int d = 1; d < devices; ++d) {
    EXPECT_EQ(s.links[static_cast<std::size_t>(d)].bytes, in_bytes[d])
        << "link 0->" << d;
    EXPECT_EQ(s.links[static_cast<std::size_t>(d * devices)].bytes,
              out_bytes[d])
        << "link " << d << "->0";
  }
}

TEST(Cluster, PinRunsWholeLaunchOnOneDevice) {
  const TensorF16 in = [&] {
    TensorF16 t(Shape{4, 2, 21, 21, kC0});
    t.fill_random_ints(4);
    return t;
  }();
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  Cluster cluster(ClusterOptions{.devices = 3});
  const Cluster::Launch lr = cluster.run_pool(op, PoolInputs{.in = &in}, 2);
  const Cluster::Stats s = cluster.stats();
  EXPECT_EQ(s.sharded_launches, 0);
  EXPECT_GT(s.redistribution_bytes, 0);  // whole launch crosses 0->2
  EXPECT_EQ(s.devices[2].launches, 1);
  EXPECT_EQ(s.devices[0].launches, 0);
  EXPECT_EQ(s.devices[1].launches, 0);

  Device lone;
  lone.set_double_buffer(true);
  expect_same_result(lr.result,
                     kernels::run_pool(lone, op, PoolInputs{.in = &in}));

  EXPECT_THROW((void)cluster.run_pool(op, PoolInputs{.in = &in}, 3), Error);
}

TEST(Cluster, BatchRedistributionMatchesStackedSliceVolume) {
  // Members of n = 2, 0, 3, 2 stack into 7 image rows, which data
  // placement cuts 3 | 2 | 2 over three devices -- across member
  // boundaries. Shard d's traffic is its rows of the stacked input
  // crossing 0->d plus the same rows of the output crossing d->0,
  // wherever the members lie. The empty member gets the empty output a
  // lone run_pool gives it.
  const std::int64_t c1 = 5, ih = 21, iw = 21;
  const int devices = 3;
  const std::vector<std::int64_t> ns = {2, 0, 3, 2};
  std::vector<TensorF16> in;
  for (std::size_t m = 0; m < ns.size(); ++m) {
    in.push_back(random_tensor(Shape{ns[m], c1, ih, iw, kC0}, 40 + m));
  }
  std::vector<PoolInputs> members;
  for (const TensorF16& t : in) members.push_back(PoolInputs{.in = &t});
  const Window2d w = Window2d::pool(3, 2);
  const PoolOp op{.kind = PoolOpKind::kMaxFwd, .window = w,
                  .fwd = akg::PoolImpl::kIm2col};
  Cluster cluster(
      ClusterOptions{.devices = devices, .placement = Placement::kData});
  const std::vector<PoolResult> got = cluster.run_batch(op, members);

  ASSERT_EQ(got.size(), members.size());
  Device lone;
  lone.set_double_buffer(true);
  for (std::size_t m = 0; m < members.size(); ++m) {
    SCOPED_TRACE("member " + std::to_string(m));
    expect_same_result(got[m], kernels::run_pool(lone, op, members[m]));
    // Every member carries the launch's aggregated run.
    EXPECT_EQ(got[m].run.device_cycles, got[0].run.device_cycles);
  }

  const std::int64_t oh = w.out_h(ih), ow = w.out_w(iw);
  const std::int64_t rows[] = {3, 2, 2};
  std::int64_t expected = 0;
  const Cluster::Stats s = cluster.stats();
  for (int d = 1; d < devices; ++d) {
    const std::int64_t in_bytes = rows[d] * c1 * ih * iw * kC0 * 2;
    const std::int64_t out_bytes = rows[d] * c1 * oh * ow * kC0 * 2;
    EXPECT_EQ(s.links[static_cast<std::size_t>(d)].bytes, in_bytes)
        << "link 0->" << d;
    EXPECT_EQ(s.links[static_cast<std::size_t>(d * devices)].bytes,
              out_bytes)
        << "link " << d << "->0";
    expected += in_bytes + out_bytes;
  }
  EXPECT_EQ(s.redistribution_bytes, expected);
  EXPECT_EQ(s.sharded_launches, 1);

  // A launch with no images at all, pinned: each member still gets the
  // lone run's empty outputs.
  const PoolInputs empty{.in = &in[1]};
  const std::vector<PoolResult> none =
      cluster.run_batch(op, std::vector<PoolInputs>{empty, empty}, 1);
  ASSERT_EQ(none.size(), 2u);
  for (const PoolResult& r : none) {
    expect_same_result(r, kernels::run_pool(lone, op, empty));
  }
}

TEST(ClusterServe, TraceReplayBitIdenticalAcrossDeviceCounts) {
  const auto entries = parse_trace(kMixedTrace);
  SessionOptions opts;
  const std::vector<PoolResult> want = replay(Cluster{}, entries, opts);
  for (const Placement p : {Placement::kData, Placement::kModel}) {
    SCOPED_TRACE(to_string(p));
    SessionStats stats;
    const std::vector<PoolResult> got = replay(
        Cluster(ClusterOptions{.devices = 3, .placement = p}), entries, opts,
        &stats);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      expect_same_result(got[i], want[i]);
    }
    EXPECT_EQ(stats.devices, 3);
    EXPECT_EQ(stats.placement, p);
    EXPECT_GT(stats.cluster.sharded_launches, 0);
    EXPECT_GT(stats.cluster.redistribution_bytes, 0);
    // The roofline never reports less than the busiest link or device.
    EXPECT_GE(stats.cluster_makespan, stats.cluster.link_busy_cycles);
    ASSERT_EQ(stats.vm_makespan_per_device.size(), 3u);
    for (const std::int64_t m : stats.vm_makespan_per_device) {
      EXPECT_GE(stats.cluster_makespan, m);
    }
  }
}

TEST(ClusterServe, FaultsOnOneDeviceAbsorbedBitIdentically) {
  const auto entries = parse_trace(kMixedTrace);
  SessionOptions opts;
  const std::vector<PoolResult> want = replay(Cluster{}, entries, opts);

  // Detected transient faults on device 1 only: its shards retry and
  // absorb, devices 0/2 run clean, and every output still matches the
  // fault-free single-device run bit for bit.
  Cluster cluster(ClusterOptions{.devices = 3});
  ResilienceOptions res;
  res.plan = FaultPlan::parse("vec_fault:2e-3", 7);
  res.max_retries = 8;
  cluster.device(1).set_resilience(res);
  SessionStats stats;
  const std::vector<PoolResult> got =
      replay(std::move(cluster), entries, opts, &stats);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    expect_same_result(got[i], want[i]);
  }
  EXPECT_EQ(stats.completed, static_cast<std::int64_t>(want.size()));
  EXPECT_EQ(stats.failed, 0);
  // The injected stream actually fired (and was absorbed per shard).
  EXPECT_GT(stats.faults.faults_detected, 0);
  EXPECT_GT(stats.faults.retries, 0);
}

TEST(ClusterServe, ShardHintPinsAndOutOfRangeFails) {
  Cluster cluster(ClusterOptions{.devices = 3});
  Session session(std::move(cluster), SessionOptions{});
  const TensorF16 in = [&] {
    TensorF16 t(Shape{2, 2, 21, 21, kC0});
    t.fill_random_ints(5);
    return t;
  }();
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};

  auto pinned = session.submit(op, PoolInputs{.in = &in},
                               SubmitOptions{.shard = 1});
  auto bad = session.submit(op, PoolInputs{.in = &in},
                            SubmitOptions{.shard = 3});
  session.drain();
  EXPECT_GT(pinned.get().out.size(), 0);
  EXPECT_THROW(bad.get(), Error);

  const SessionStats s = session.stats();
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.cluster.devices[1].launches, 1);
  EXPECT_EQ(s.cluster.devices[0].launches, 0);
}

TEST(ClusterServe, DifferentlyPinnedRequestsNeverCoalesce) {
  // Same geometry, different pins: the worker must partition the take by
  // hint, so each pin launches alone on its device.
  Cluster cluster(ClusterOptions{.devices = 2});
  Session session(std::move(cluster), SessionOptions{});
  const TensorF16 in = [&] {
    TensorF16 t(Shape{1, 2, 21, 21, kC0});
    t.fill_random_ints(6);
    return t;
  }();
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  session.pause();
  auto f0 = session.submit(op, PoolInputs{.in = &in},
                           SubmitOptions{.shard = 0});
  auto f1 = session.submit(op, PoolInputs{.in = &in},
                           SubmitOptions{.shard = 1});
  session.resume();
  session.drain();
  expect_same_tensor(f0.get().out, f1.get().out);
  const SessionStats s = session.stats();
  EXPECT_EQ(s.launches, 2);  // one per pin, no cross-pin batch
  EXPECT_EQ(s.cluster.devices[0].launches, 1);
  EXPECT_EQ(s.cluster.devices[1].launches, 1);
}

TEST(ClusterServe, MembersStraddlingShardsBitIdentical) {
  // One paused window per placement launches four three-member batches
  // (maxpool forward, maxpool_mask, and maxpool_bwd on mask + grad for
  // ih = 19 and for ih = 20, where row 19 is under no k3 s2 window and
  // stays the zero gradient). Members of n = 2, 3, 2 stack into 7 rows:
  // data placement cuts them 3 | 2 | 2, so shard 0 holds member 0 and a
  // row of member 1, shard 1 the rest of member 1, and shard 2 is member
  // 2 whole. Model placement cuts C1 = 5 into 2 | 2 | 1 channel blocks of
  // every member. Every member must match a lone-device run bit for bit.
  const PoisonedArena poison;
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t c1 = 5;
  const std::vector<std::int64_t> ns = {2, 3, 2};
  struct Geometry {
    std::int64_t h;
    std::vector<TensorF16> in, mask, grad;
  };
  std::vector<Geometry> geoms(2);
  geoms[0].h = 19;
  geoms[1].h = 20;
  for (Geometry& g : geoms) {
    for (std::size_t m = 0; m < ns.size(); ++m) {
      g.in.push_back(
          random_tensor(Shape{ns[m], c1, g.h, g.h, kC0}, 50 + m + g.h));
      g.mask.push_back(ref::maxpool_argmax_mask(g.in.back(), w));
      g.grad.push_back(random_tensor(
          Shape{ns[m], c1, w.out_h(g.h), w.out_w(g.h), kC0}, 60 + m + g.h));
    }
  }
  const PoolOp bwd{.kind = PoolOpKind::kMaxBwd, .window = w,
                   .merge = kernels::MergeImpl::kCol2im};
  const std::vector<std::pair<PoolOp, const Geometry*>> launches = {
      {{.kind = PoolOpKind::kMaxFwd, .window = w,
        .fwd = akg::PoolImpl::kIm2col},
       &geoms[0]},
      {{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
        .fwd = akg::PoolImpl::kIm2col},
       &geoms[0]},
      {bwd, &geoms[0]},
      {bwd, &geoms[1]}};
  auto inputs = [&](const PoolOp& op, const Geometry& g, std::size_t m) {
    return op.kind == PoolOpKind::kMaxBwd
               ? PoolInputs{.mask = &g.mask[m], .grad = &g.grad[m],
                            .ih = g.h, .iw = g.h}
               : PoolInputs{.in = &g.in[m]};
  };
  Device lone;
  lone.set_double_buffer(true);

  for (const Placement p : {Placement::kData, Placement::kModel}) {
    SCOPED_TRACE(to_string(p));
    Session session(Cluster(ClusterOptions{.devices = 3, .placement = p}),
                    SessionOptions{});
    session.pause();
    std::vector<std::future<PoolResult>> futures;
    for (const auto& [op, g] : launches) {
      for (std::size_t m = 0; m < ns.size(); ++m) {
        futures.push_back(session.submit(op, inputs(op, *g, m)));
      }
    }
    session.resume();
    session.drain();
    std::size_t f = 0;
    for (const auto& [op, g] : launches) {
      for (std::size_t m = 0; m < ns.size(); ++m) {
        SCOPED_TRACE(op.to_string() + " h=" + std::to_string(g->h) +
                     " member " + std::to_string(m));
        const PoolResult got = futures[f++].get();
        expect_same_result(got,
                           kernels::run_pool(lone, op, inputs(op, *g, m)));
        if (g->h != 20) continue;
        // The uncovered last row is zero, not the poisoned arena's 0xA5.
        for (std::int64_t b = 0; b < ns[m] * c1; ++b) {
          for (std::int64_t i = 0; i < g->h * kC0; ++i) {
            const std::int64_t at = (b * g->h + g->h - 1) * g->h * kC0 + i;
            ASSERT_EQ(got.grad_in.flat(at).bits(), 0) << "slice " << b;
          }
        }
      }
    }
    const SessionStats s = session.stats();
    EXPECT_EQ(s.launches, 4);  // one three-member launch per batch key
    EXPECT_EQ(s.cluster.sharded_launches, 4);
  }
}

TEST(ClusterServe, MalformedBackwardFailsAloneBetweenGoodBatchmates) {
  // A malformed maxpool_bwd queued between two good same-key requests
  // fails alone with the contract's Error, on one device and sharded over
  // two; the good pair still launches once, bit-identical to lone runs.
  // The mask is missing; or it holds 1 image for a 2-image gradient (a
  // shard would copy 2 images out of it); or the request carries a stray
  // `in` tensor that the kind never reads.
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t c1 = 2, h = 19;
  const Shape grad_dims{1, c1, w.out_h(h), w.out_w(h), kC0};
  std::vector<TensorF16> mask, grad;
  for (std::uint64_t m = 0; m < 2; ++m) {
    mask.push_back(ref::maxpool_argmax_mask(
        random_tensor(Shape{1, c1, h, h, kC0}, 80 + m), w));
    grad.push_back(random_tensor(grad_dims, 82 + m));
  }
  const TensorF16 grad2 = random_tensor(
      Shape{2, c1, w.out_h(h), w.out_w(h), kC0}, 84);
  const PoolOp op{.kind = PoolOpKind::kMaxBwd, .window = w,
                  .merge = kernels::MergeImpl::kCol2im};
  const PoolInputs good[] = {
      {.mask = &mask[0], .grad = &grad[0], .ih = h, .iw = h},
      {.mask = &mask[1], .grad = &grad[1], .ih = h, .iw = h}};
  const std::pair<const char*, PoolInputs> bad[] = {
      {"missing mask", {.grad = &grad2, .ih = h, .iw = h}},
      {"1-image mask, 2-image grad",
       {.mask = &mask[0], .grad = &grad2, .ih = h, .iw = h}},
      {"stray input tensor",
       {.in = &grad2, .mask = &mask[0], .grad = &grad[0], .ih = h,
        .iw = h}}};
  Device lone;
  lone.set_double_buffer(true);

  for (const int devices : {1, 2}) {
    for (const auto& [what, bad_in] : bad) {
      SCOPED_TRACE(std::string(what) + " on " + std::to_string(devices) +
                   " device(s)");
      Session session(Cluster(ClusterOptions{.devices = devices}),
                      SessionOptions{});
      session.pause();
      auto f0 = session.submit(op, good[0]);
      auto f_bad = session.submit(op, bad_in);
      auto f1 = session.submit(op, good[1]);
      session.resume();
      session.drain();
      EXPECT_THROW(f_bad.get(), Error);
      expect_same_result(f0.get(), kernels::run_pool(lone, op, good[0]));
      expect_same_result(f1.get(), kernels::run_pool(lone, op, good[1]));
      const SessionStats s = session.stats();
      EXPECT_EQ(s.launches, 1);
      EXPECT_EQ(s.completed, 2);
      EXPECT_EQ(s.failed, 1);
    }
  }
}

TEST(Cluster, ShardsRunOnTheMembersTensorsInPlace) {
  // Three members on three devices, C1 = 5: n = 2, 2, 2 (aligned: each
  // data-placement shard is one whole member) and n = 2, 3, 2
  // (straddling: data placement cuts the 7 rows 3 | 2 | 2), in data and
  // model placement (model cuts every member's C1 into 2 | 2 | 1). Every
  // shard reads and writes the members' tensors in place, so a launch's
  // only arena acquires are the members' own outputs -- 3 x {out, mask}
  // for maxpool_mask, 3 x {out} or {grad_in} otherwise -- and each member
  // matches a lone-device run.
  const Window2d w = Window2d::pool(3, 2);
  const std::int64_t c1 = 5, h = 19;
  const std::vector<std::pair<PoolOp, std::int64_t>> ops = {
      {{.kind = PoolOpKind::kMaxFwd, .window = w,
        .fwd = akg::PoolImpl::kIm2col},
       1},
      {{.kind = PoolOpKind::kMaxMaskFwd, .window = w,
        .fwd = akg::PoolImpl::kIm2col},
       2},
      {{.kind = PoolOpKind::kMaxBwd, .window = w,
        .merge = kernels::MergeImpl::kCol2im},
       1}};
  Device lone;
  TensorArena& arena = TensorArena::global();
  for (const std::vector<std::int64_t>& ns :
       {std::vector<std::int64_t>{2, 2, 2},
        std::vector<std::int64_t>{2, 3, 2}}) {
    std::vector<TensorF16> in, mask, grad;
    for (std::size_t m = 0; m < ns.size(); ++m) {
      in.push_back(random_tensor(Shape{ns[m], c1, h, h, kC0}, 70 + m));
      mask.push_back(ref::maxpool_argmax_mask(in.back(), w));
      grad.push_back(random_tensor(
          Shape{ns[m], c1, w.out_h(h), w.out_w(h), kC0}, 74 + m));
    }
    for (const Placement p : {Placement::kData, Placement::kModel}) {
      Cluster cluster(ClusterOptions{.devices = 3, .placement = p});
      for (const auto& [op, produced] : ops) {
        SCOPED_TRACE(op.to_string() + " " + to_string(p) + " n2=" +
                     std::to_string(ns[1]));
        std::vector<PoolInputs> members;
        for (std::size_t m = 0; m < ns.size(); ++m) {
          members.push_back(op.kind == PoolOpKind::kMaxBwd
                                ? PoolInputs{.mask = &mask[m],
                                             .grad = &grad[m], .ih = h,
                                             .iw = h}
                                : PoolInputs{.in = &in[m]});
        }
        const std::int64_t sharded = cluster.stats().sharded_launches;
        arena.reset_stats();
        const std::vector<PoolResult> got = cluster.run_batch(op, members);
        const TensorArena::Stats a = arena.stats();
        EXPECT_EQ(a.allocs + a.reuses,
                  static_cast<std::int64_t>(members.size()) * produced);
        EXPECT_EQ(cluster.stats().sharded_launches, sharded + 1);
        for (std::size_t m = 0; m < members.size(); ++m) {
          SCOPED_TRACE("member " + std::to_string(m));
          expect_same_result(got[m], kernels::run_pool(lone, op, members[m]));
        }
      }
    }
  }
}

TEST(Cluster, MembersOfDifferentGeometryThrowBeforeRunning) {
  // run_batch addresses every member with member 0's shapes, so a batch
  // whose tensors differ beyond N (or, backward, in ih/iw) must throw
  // before any shard runs, on one device and sharded over two. A Session
  // never forms such batches: its batch key holds C1, ih, iw and the
  // window. Probe 1: two maxpool_bwd members with 9x9 gradients, one for
  // ih = 19 and one for ih = 20. Probe 2: two maxpool members of 19^2 and
  // 20^2.
  const Window2d w = Window2d::pool(3, 2);
  ASSERT_EQ(w.out_h(19), w.out_h(20));
  std::vector<TensorF16> in, mask, grad;
  for (const std::int64_t h : {19, 20}) {
    in.push_back(random_tensor(Shape{1, 2, h, h, kC0}, 90 + h));
    mask.push_back(ref::maxpool_argmax_mask(in.back(), w));
    grad.push_back(random_tensor(Shape{1, 2, 9, 9, kC0}, 95 + h));
  }
  const PoolOp bwd{.kind = PoolOpKind::kMaxBwd, .window = w,
                   .merge = kernels::MergeImpl::kCol2im};
  const PoolInputs bwd_members[] = {
      {.mask = &mask[0], .grad = &grad[0], .ih = 19, .iw = 19},
      {.mask = &mask[1], .grad = &grad[1], .ih = 20, .iw = 20}};
  const PoolOp fwd{.kind = PoolOpKind::kMaxFwd, .window = w,
                   .fwd = akg::PoolImpl::kIm2col};
  const PoolInputs fwd_members[] = {{.in = &in[0]}, {.in = &in[1]}};
  for (const int devices : {1, 2}) {
    SCOPED_TRACE(std::to_string(devices) + " device(s)");
    Cluster cluster(ClusterOptions{.devices = devices});
    EXPECT_THROW(cluster.run_batch(bwd, bwd_members), Error);
    EXPECT_THROW(cluster.run_batch(fwd, fwd_members), Error);
    const Cluster::Stats s = cluster.stats();
    EXPECT_EQ(s.launches, 0);
    for (const Cluster::DeviceStats& d : s.devices) {
      EXPECT_EQ(d.launches, 0);
    }
  }
}

TEST(ClusterServe, PinnedGroupGetsOneDeviceBlockCap) {
  // A pinned launch runs whole on one device, so its block cap is that
  // device's cores x kUbWaves (32 x 4 = 128 blocks), not the cluster's:
  // sixteen 32-block requests pinned to device 1 launch four at a time,
  // as they would on a lone device.
  SessionOptions opts;
  opts.max_batch = 16;
  Session session(Cluster(ClusterOptions{.devices = 4}), opts);
  ASSERT_EQ(session.cluster().device(1).num_cores(), 32);
  const TensorF16 in = random_tensor(Shape{1, 32, 9, 9, kC0}, 8);
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  session.pause();
  std::vector<std::future<PoolResult>> futures;
  for (int r = 0; r < 16; ++r) {
    futures.push_back(session.submit(op, PoolInputs{.in = &in},
                                     SubmitOptions{.shard = 1}));
  }
  session.resume();
  session.drain();
  for (auto& f : futures) EXPECT_GT(f.get().out.size(), 0);
  const SessionStats s = session.stats();
  EXPECT_EQ(s.launches, 4);
  EXPECT_EQ(s.max_batch, 4u);
  EXPECT_EQ(s.cluster.devices[1].launches, 4);
}

// Every key of `v`, at every depth (objects inside arrays included).
void collect_keys(const json::Value& v, std::set<std::string>* keys) {
  if (v.is_array()) {
    for (const json::Value& e : v.as_array()) collect_keys(e, keys);
  } else if (v.is_object()) {
    for (const auto& [key, child] : v.as_object()) {
      keys->insert(key);
      collect_keys(child, keys);
    }
  }
}

// True when `key` appears in `text` as a whole name, not inside a longer
// one ("cycles" inside "device_cycles_total" does not count).
bool names(const std::string& text, const std::string& key) {
  auto name_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '-';
  };
  for (std::size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos + 1)) {
    const std::size_t end = pos + key.size();
    if ((pos == 0 || !name_char(text[pos - 1])) &&
        (end == text.size() || !name_char(text[end]))) {
      return true;
    }
  }
  return false;
}

TEST(ClusterServe, RenderNamesEveryServeCounter) {
  // Two devices, data placement: the coalesced N=6 launch shards, so the
  // per-device rows and the links array are populated.
  Session session(
      Cluster(ClusterOptions{.devices = 2, .placement = Placement::kData}),
      SessionOptions{});
  const TensorF16 in = [&] {
    TensorF16 t(Shape{3, 2, 21, 21, kC0});
    t.fill_random_ints(7);
    return t;
  }();
  const PoolOp op{.kind = PoolOpKind::kMaxFwd,
                  .window = Window2d::pool(3, 2),
                  .fwd = akg::PoolImpl::kIm2col};
  session.pause();
  auto a = session.submit(op, PoolInputs{.in = &in});
  auto b = session.submit(op, PoolInputs{.in = &in});
  session.resume();
  session.drain();
  EXPECT_GT(a.get().out.size(), 0);
  EXPECT_GT(b.get().out.size(), 0);
  ASSERT_GT(session.stats().cluster.sharded_launches, 0);

  MetricsRegistry reg;
  reg.set_serve(session.serve_json());
  const json::Value doc = json::parse(reg.to_json());
  const std::string report = render_report(doc);
  std::set<std::string> keys;
  collect_keys(doc.at("serve"), &keys);
  ASSERT_FALSE(keys.empty());
  std::string missing;
  for (const std::string& key : keys) {
    if (!names(report, key)) missing += " " + key;
  }
  EXPECT_TRUE(missing.empty()) << "never named:" << missing << "\n"
                               << report;
}

}  // namespace
}  // namespace davinci::serve
